package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pathprof/internal/estimate"
)

const demoSrc = `
var total = 0;
func classify(x) {
	if (x < 10) { return 0; }
	if (x < 100) { return 1; }
	return 2;
}
func main() {
	for (var i = 0; i < 200; i = i + 1) {
		var c = classify(rand(150));
		if (c == 0) { total = total + 1; } else {
			if (c == 1) { total = total + 10; } else { total = total + 100; }
		}
	}
	print(total);
}
`

func openDemo(t *testing.T) *Session {
	t.Helper()
	s, err := Open(demoSrc)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestOpenRejectsBadSource(t *testing.T) {
	if _, err := Open("func main() { x = ; }"); err == nil {
		t.Fatal("Open accepted bad source")
	}
	if _, err := Open("func f() {}"); err == nil {
		t.Fatal("Open accepted program without main")
	}
}

func TestProfileAndEstimateRoundTrip(t *testing.T) {
	s := openDemo(t)
	if s.MaxDegree() < 1 {
		t.Fatalf("MaxDegree = %d", s.MaxDegree())
	}
	blRun, err := s.ProfileBL(7)
	if err != nil {
		t.Fatal(err)
	}
	if blRun.Steps == 0 || blRun.Overhead.BLOps == 0 {
		t.Fatal("BL run collected nothing")
	}
	if blRun.Overhead.LoopOps != 0 || blRun.Overhead.InterOps != 0 {
		t.Fatal("BL run charged overlap ops")
	}

	k := s.MaxDegree()
	olRun, err := s.ProfileOL(7, k)
	if err != nil {
		t.Fatal(err)
	}
	// BL counters are identical across configurations (same seed).
	for f := range blRun.Counters.BL {
		for id, n := range blRun.Counters.BL[f] {
			if olRun.Counters.BL[f][id] != n {
				t.Fatalf("BL profile differs between runs at func %d path %d", f, id)
			}
		}
	}

	tr, err := s.Trace(7)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := tr.Flows()
	if err != nil {
		t.Fatal(err)
	}

	peBL, err := s.Estimate(blRun)
	if err != nil {
		t.Fatal(err)
	}
	peOL, err := s.Estimate(olRun)
	if err != nil {
		t.Fatal(err)
	}
	real := int64(rf.Total())
	if peBL.Definite() > real || peBL.Potential() < real {
		t.Fatalf("BL estimate [%d,%d] misses real %d", peBL.Definite(), peBL.Potential(), real)
	}
	// At max degree the estimate is exact.
	if peOL.Definite() != real || peOL.Potential() != real {
		t.Fatalf("max-degree estimate [%d,%d] != real %d", peOL.Definite(), peOL.Potential(), real)
	}
	vars, exact := peOL.Counts()
	if vars == 0 || exact != vars {
		t.Fatalf("max-degree exactness: %d/%d", exact, vars)
	}
	if !strings.Contains(peOL.Summary(), "pinned exactly") {
		t.Fatalf("Summary: %q", peOL.Summary())
	}

}

func TestHottestPaths(t *testing.T) {
	s := openDemo(t)
	run, err := s.ProfileBL(7)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := s.HottestPaths(run, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 || len(hot) > 5 {
		t.Fatalf("hot paths = %d", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Count > hot[i-1].Count {
			t.Fatal("hot paths not sorted by count")
		}
	}
	text := FormatHotPaths(hot)
	if !strings.Contains(text, "=>") {
		t.Fatalf("hot path rendering lacks block sequences:\n%s", text)
	}
}

func TestHotPairReports(t *testing.T) {
	s := openDemo(t)
	k := s.MaxDegree()
	run, err := s.ProfileOL(7, k)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := s.Estimate(run)
	if err != nil {
		t.Fatal(err)
	}
	loops := s.HotLoopPairs(pe, 1)
	if len(loops) == 0 {
		t.Fatal("no hot loop pairs found")
	}
	for i := 1; i < len(loops); i++ {
		if loops[i].Lower > loops[i-1].Lower {
			t.Fatal("loop pairs not sorted")
		}
	}
	if text := FormatLoopPairs(loops); !strings.Contains(text, "loop@") {
		t.Fatalf("loop pair rendering:\n%s", text)
	}

	cross, err := s.HotCrossingPairs(pe, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cross) == 0 {
		t.Fatal("no hot crossing pairs found")
	}
	sawI, sawII := false, false
	for _, c := range cross {
		switch c.Kind {
		case "I":
			sawI = true
		case "II":
			sawII = true
		}
	}
	if !sawI || !sawII {
		t.Fatalf("missing crossing kinds: I=%v II=%v", sawI, sawII)
	}
	if text := FormatCrossingPairs(cross); !strings.Contains(text, "type-I") {
		t.Fatalf("crossing rendering:\n%s", text)
	}
}

func TestSessionOutCapturesProgramOutput(t *testing.T) {
	s := openDemo(t)
	var buf bytes.Buffer
	s.Out = &buf
	if _, err := s.ProfileBL(7); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("program print output not captured")
	}
}

func TestEstimateModeExtendedSound(t *testing.T) {
	s := openDemo(t)
	run, err := s.ProfileOL(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace(7)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := tr.Flows()
	if err != nil {
		t.Fatal(err)
	}
	pe, err := s.EstimateMode(run, estimate.Extended)
	if err != nil {
		t.Fatal(err)
	}
	real := int64(rf.Total())
	if pe.Definite() > real || pe.Potential() < real {
		t.Fatalf("extended estimate [%d,%d] misses real %d", pe.Definite(), pe.Potential(), real)
	}
}

func TestAdviseK(t *testing.T) {
	s := openDemo(t)
	// A generous budget admits the maximum degree.
	k, ok, err := s.AdviseK(7, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || k != s.MaxDegree() {
		t.Fatalf("AdviseK(huge budget) = %d,%v; want max %d", k, ok, s.MaxDegree())
	}
	// A tiny budget admits nothing, not even BL.
	k, ok, err = s.AdviseK(7, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if ok || k != -1 {
		t.Fatalf("AdviseK(tiny budget) = %d,%v; want -1,false", k, ok)
	}
	// Any budget between BL's cost and the max-degree cost must admit BL
	// and respect the budget: the advised configuration's measured
	// overhead fits, and the next degree (if any) does not.
	blRun, err := s.ProfileBL(7)
	if err != nil {
		t.Fatal(err)
	}
	maxRun, err := s.ProfileOL(7, s.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	mid := (blRun.Overhead.BLPct() + maxRun.Overhead.BLPct() + maxRun.Overhead.AllPct()) / 2
	k, ok, err = s.AdviseK(7, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("mid budget %.1f should admit BL", mid)
	}
	if k >= 0 {
		run, err := s.ProfileOL(7, k)
		if err != nil {
			t.Fatal(err)
		}
		if run.Overhead.BLPct()+run.Overhead.AllPct() > mid {
			t.Fatalf("advised k=%d exceeds budget %.1f", k, mid)
		}
	}
	if k < s.MaxDegree() {
		next, err := s.ProfileOL(7, k+1)
		if err != nil {
			t.Fatal(err)
		}
		if next.Overhead.BLPct()+next.Overhead.AllPct() <= mid {
			t.Fatalf("degree %d also fits budget %.1f; advisor under-advised", k+1, mid)
		}
	}
}

func TestSaveLoadRun(t *testing.T) {
	s := openDemo(t)
	run, err := s.ProfileOL(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K != 2 {
		t.Fatalf("loaded K = %d; want 2", loaded.K)
	}
	// Estimation from the loaded run matches the live run exactly.
	pe1, err := s.Estimate(run)
	if err != nil {
		t.Fatal(err)
	}
	pe2, err := s.Estimate(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if pe1.Definite() != pe2.Definite() || pe1.Potential() != pe2.Potential() {
		t.Fatalf("offline estimate [%d,%d] != live [%d,%d]",
			pe2.Definite(), pe2.Potential(), pe1.Definite(), pe1.Potential())
	}
	// Garbage rejected.
	if _, err := LoadRun(bytes.NewReader([]byte("junk\n"))); err == nil {
		t.Fatal("LoadRun accepted garbage")
	}
}

// TestLoadRunRefusesWidenedHeader: a saved run spans the paper's
// two-iteration window, so SaveRun never names a width, a header naming 2
// still loads, and a header naming any other width is refused.
func TestLoadRunRefusesWidenedHeader(t *testing.T) {
	s := openDemo(t)
	run, err := s.ProfileOL(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if header := raw[:bytes.IndexByte(raw, '\n')]; bytes.Contains(header, []byte("iters")) {
		t.Fatalf("header %q names a width", header)
	}
	withIters := func(n int) []byte {
		return bytes.Replace(raw, []byte(`"k":1`), []byte(fmt.Sprintf(`"k":1,"iters":%d`, n)), 1)
	}
	if _, err := LoadRun(bytes.NewReader(withIters(2))); err != nil {
		t.Fatalf("header naming iters 2: %v", err)
	}
	for _, n := range []int{3, 4} {
		if _, err := LoadRun(bytes.NewReader(withIters(n))); err == nil || !strings.Contains(err.Error(), "iters must be 2") {
			t.Errorf("header naming iters %d: err = %v, want the width refused", n, err)
		}
	}
}
