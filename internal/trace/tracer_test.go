package trace

import (
	"testing"

	"pathprof/internal/interp"
	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/workload"
)

func runTraced(t *testing.T, src string, seed uint64, wpp bool) (*profile.Info, *Tracer, *interp.Machine) {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	m := interp.New(prog, seed)
	tr := NewTracer(info, m)
	if wpp {
		tr.EnableWPP()
	}
	if err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if tr.Err != nil {
		t.Fatalf("tracer: %v", tr.Err)
	}
	return info, tr, m
}

func TestDeterministicLoopPairs(t *testing.T) {
	// A fixed 4-iteration loop with a single body path: exactly 3
	// adjacent pairs (0 ! 0).
	_, tr, _ := runTraced(t, `
		func main() {
			var i = 0;
			while (i < 4) { i = i + 1; }
		}
	`, 1, false)
	pairs, err := tr.LoopPairs()
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v; want exactly one kind", pairs)
	}
	for pk, n := range pairs {
		if pk.I != 0 || pk.J != 0 || n != 3 {
			t.Fatalf("pair %+v count %d; want (0,0) x3", pk, n)
		}
	}
	fl, err := tr.Flows()
	if err != nil {
		t.Fatal(err)
	}
	if fl.Loop != 3 || fl.TypeI != 0 || fl.TypeII != 0 {
		t.Fatalf("flows = %+v", fl)
	}
}

func TestDeterministicCallCrossings(t *testing.T) {
	// main calls f exactly 5 times; each call contributes one Type I and
	// one Type II crossing.
	_, tr, _ := runTraced(t, `
		func f(x) {
			if (x > 2) { return 1; }
			return 0;
		}
		func main() {
			var s = 0;
			for (var i = 0; i < 5; i = i + 1) { s = s + f(i); }
			print(s);
		}
	`, 1, false)
	var t1, t2, calls uint64
	for _, n := range tr.T1 {
		t1 += n
	}
	for _, n := range tr.T2 {
		t2 += n
	}
	for _, n := range tr.Calls {
		calls += n
	}
	if calls != 5 || t1 != 5 || t2 != 5 {
		t.Fatalf("calls/t1/t2 = %d/%d/%d; want 5/5/5", calls, t1, t2)
	}
	// The callee takes path "x>2 false" for i=0,1,2 and "true" for 3,4:
	// two distinct Q values with counts 3 and 2.
	qCounts := map[int64]uint64{}
	for adj, n := range tr.T1 {
		qCounts[adj.Q] += n
	}
	if len(qCounts) != 2 {
		t.Fatalf("distinct callee first-paths = %d; want 2", len(qCounts))
	}
	saw3, saw2 := false, false
	for _, n := range qCounts {
		if n == 3 {
			saw3 = true
		}
		if n == 2 {
			saw2 = true
		}
	}
	if !saw3 || !saw2 {
		t.Fatalf("q counts = %v; want {3,2}", qCounts)
	}
}

func TestBLProfileAccountsEveryInstance(t *testing.T) {
	_, tr, _ := runTraced(t, `
		func g(a) { return a * 2; }
		func main() {
			var s = 0;
			for (var i = 0; i < 50; i = i + 1) {
				if (rand(3) == 0) { s = s + g(i); } else { s = s - 1; }
			}
			print(s);
		}
	`, 9, false)
	var instances uint64
	for _, prof := range tr.BL {
		for _, n := range prof {
			instances += n
		}
	}
	if instances != tr.Attr.Total {
		t.Fatalf("BL instance total %d != attribution total %d", instances, tr.Attr.Total)
	}
	if tr.Attr.Proc == 0 || tr.Attr.LoopOnly == 0 {
		t.Fatalf("attribution = %+v; want both categories populated", tr.Attr)
	}
	if tr.Attr.Proc+tr.Attr.LoopOnly > tr.Attr.Total {
		t.Fatal("attribution categories exceed total")
	}
}

// rawRecorder independently records the block stream for WPP validation.
type rawRecorder struct {
	interp.BaseListener
	info *profile.Info
	seq  []int32
}

func (r *rawRecorder) OnEnter(fr *interp.Frame) {
	fi := r.info.OfFunc(fr.Fn)
	r.seq = append(r.seq, int32(fi.Index<<16|int(fi.G.Entry())))
}

func (r *rawRecorder) OnEdge(fr *interp.Frame, from, to int) {
	fi := r.info.OfFunc(fr.Fn)
	r.seq = append(r.seq, int32(fi.Index<<16|to))
}

func TestWPPRoundTripsAgainstRawStream(t *testing.T) {
	src := `
		func h(v) { if (v % 2 == 0) { return v / 2; } return 3 * v + 1; }
		func main() {
			var v = 27;
			var steps = 0;
			while (v != 1) {
				v = h(v);
				steps = steps + 1;
				if (steps > 200) { break; }
			}
			print(steps);
		}
	`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(prog, 1)
	tr := NewTracer(info, m)
	tr.EnableWPP()
	raw := &rawRecorder{info: info}
	m.AddListener(raw)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Err != nil {
		t.Fatal(tr.Err)
	}
	got := tr.WPP.Expand()
	if len(got) != len(raw.seq) {
		t.Fatalf("WPP length %d != raw %d", len(got), len(raw.seq))
	}
	for i := range got {
		if got[i] != raw.seq[i] {
			t.Fatalf("WPP diverges from raw stream at %d", i)
		}
	}
	if tr.WPP.Ratio() <= 1 {
		t.Fatalf("compression ratio %.2f; a Collatz trace must compress", tr.WPP.Ratio())
	}
}

func TestExpectedCountersConsistentAcrossDegrees(t *testing.T) {
	// Aggregating degree-k expected counters down to degree 0 must equal
	// the degree-0 expectation (the estimation layer relies on this).
	_, tr, _ := runTraced(t, `
		func main() {
			var s = 0;
			for (var i = 0; i < 60; i = i + 1) {
				if (rand(2) == 0) { s = s + 1; } else {
					if (rand(2) == 0) { s = s + 2; } else { s = s - 1; }
				}
			}
			print(s);
		}
	`, 4, false)
	c0, err := tr.ExpectedLoopCounters(0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := tr.ExpectedLoopCounters(2)
	if err != nil {
		t.Fatal(err)
	}
	var sum0, sum2 uint64
	for _, n := range c0 {
		sum0 += n
	}
	for _, n := range c2 {
		sum2 += n
	}
	if sum0 != sum2 {
		t.Fatalf("counter mass differs across degrees: %d vs %d", sum0, sum2)
	}
	if len(c2) < len(c0) {
		t.Fatalf("higher degree has fewer counter keys (%d < %d)", len(c2), len(c0))
	}
}

// TestTracerAllocsBelowInstances is the tracer's allocation guard: one
// traced run of each bundled program must allocate fewer objects than it
// completes BL path instances. Activation state is recycled by call depth
// and per-instance records are held by value, so what remains grows with
// distinct paths and keys, not with the instances themselves.
func TestTracerAllocsBelowInstances(t *testing.T) {
	for _, wb := range workload.All() {
		prog, err := wb.Compile()
		if err != nil {
			t.Fatal(err)
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		var tr *Tracer
		var runErr error
		allocs := testing.AllocsPerRun(3, func() {
			m := interp.New(prog, wb.Seed)
			tr = NewTracer(info, m)
			if err := m.Run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", wb.Name, runErr)
		}
		if tr.Err != nil {
			t.Fatalf("%s: tracer: %v", wb.Name, tr.Err)
		}
		instances := tr.Attr.Total
		t.Logf("%s: %.0f allocs for %d instances", wb.Name, allocs, instances)
		if allocs >= float64(instances) {
			t.Errorf("%s: %.0f allocs per traced run, want fewer than its %d BL path instances",
				wb.Name, allocs, instances)
		}
	}
}
