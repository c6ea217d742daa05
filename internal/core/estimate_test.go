package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pathprof/internal/estimate"
	"pathprof/internal/randprog"
	"pathprof/internal/workload"
)

// fingerprint renders every bound of a program estimate, so two estimates
// compare as strings.
func fingerprint(pe *ProgramEstimate) string {
	var b strings.Builder
	vars, exact := pe.Counts()
	fmt.Fprintf(&b, "def=%d pot=%d vars=%d exact=%d skipped=%d\n", pe.Definite(), pe.Potential(), vars, exact, pe.Skipped)
	pairs := func(e *estimate.Estimate) {
		for v := 0; v < e.Vars(); v++ {
			row, col, lo, hi := e.Pair(v)
			fmt.Fprintf(&b, " (%d,%d)=[%d,%d]", row, col, lo, hi)
		}
		b.WriteByte('\n')
	}
	for _, le := range pe.Loops {
		fmt.Fprintf(&b, "loop %s/%d:", le.Func.Fn.Name, le.Loop.Index)
		pairs(&le.Res.Estimate)
	}
	for _, se := range pe.Sites {
		for i, r := range []*estimate.InterResult{se.TypeI, se.TypeII} {
			fmt.Fprintf(&b, "site %s/%d->%s type %d:", se.Caller.Fn.Name, se.Site.Index, se.Callee.Fn.Name, i+1)
			if r != nil {
				pairs(&r.Estimate)
			}
		}
	}
	return b.String()
}

// profileAt runs s at degree k (-1 = Ball-Larus only).
func profileAt(t *testing.T, s *Session, seed uint64, k int) *Run {
	t.Helper()
	var run *Run
	var err error
	if k < 0 {
		run, err = s.ProfileBL(seed)
	} else {
		run, err = s.ProfileOL(seed, k)
	}
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestConcurrentEstimatesShareInfo estimates every degree of every bundled
// program, in both modes, from concurrent goroutines on one shared Info
// whose estimation caches start empty, and requires each result to equal
// a sequential estimate on a separate Info.
func TestConcurrentEstimatesShareInfo(t *testing.T) {
	type job struct {
		s    *Session
		run  *Run
		mode estimate.Mode
		want string
	}
	var jobs []job
	for _, b := range workload.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := OpenProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := OpenProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		for k := -1; k <= ref.MaxDegree(); k++ {
			run := profileAt(t, ref, b.Seed, k)
			for _, mode := range []estimate.Mode{estimate.Paper, estimate.Extended} {
				pe, err := ref.EstimateMode(run, mode)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, job{s: shared, run: run, mode: mode, want: fingerprint(pe)})
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			pe, err := j.s.EstimateMode(j.run, j.mode)
			if err != nil {
				errs[i] = err
				return
			}
			if got := fingerprint(pe); got != j.want {
				errs[i] = fmt.Errorf("k=%d %v: concurrent estimate differs from the sequential one:\n%s\nwant:\n%s",
					j.run.K, j.mode, got, j.want)
			}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// maxAllocsPerProblem bounds EstimateMode's allocations per solved problem
// on a warm session: the result's bounds, its live keys and the per-call
// path facts, with every other buffer pooled.
const maxAllocsPerProblem = 24

// TestEstimateAllocsPerProblem guards estimation's allocation budget on
// every bundled program at its operating degree, caches warm.
func TestEstimateAllocsPerProblem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, b := range workload.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		k := min(max((s.MaxDegree()+2)/3, 1), s.MaxDegree())
		run := profileAt(t, s, b.Seed, k)
		pe, err := s.Estimate(run)
		if err != nil {
			t.Fatal(err)
		}
		problems := len(pe.Loops)
		for _, se := range pe.Sites {
			if se.TypeI != nil {
				problems++
			}
			if se.TypeII != nil {
				problems++
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.Estimate(run); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / float64(problems); per > maxAllocsPerProblem {
			t.Errorf("%s k=%d: %.0f allocations for %d problems, %.1f each; want at most %d",
				b.Name, k, allocs, problems, per, maxAllocsPerProblem)
		}
	}
}

// deepSeed is a generated program of maximum degree 14 whose dense
// estimation problems hold 712,290 variables, 50 or fewer of them with a
// positive cap.
const deepSeed = 2226407336114473942

// TestDeepSeedEstimates pins the bounds of the deep seed at every degree
// (the values the dense estimator computed) and its estimation time.
func TestDeepSeedEstimates(t *testing.T) {
	want := map[int][4]int64{ // definite, potential, vars, exact
		-1: {2345, 13756, 712290, 712234},
		0:  {10546, 12276, 712290, 712257},
		1:  {10546, 12276, 712290, 712257},
		2:  {10885, 11937, 712290, 712276},
		3:  {11139, 11683, 712290, 712280},
		4:  {11139, 11683, 712290, 712280},
	}
	for k := 5; k <= 14; k++ {
		want[k] = [4]int64{11411, 11411, 712290, 712290}
	}
	s, err := Open(randprog.SeedSource(deepSeed))
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxDegree() != 14 {
		t.Fatalf("max degree %d, want 14", s.MaxDegree())
	}
	for k := -1; k <= 14; k++ {
		run := profileAt(t, s, 1, k)
		var pe *ProgramEstimate
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			pe, err = s.Estimate(run)
			best = min(best, time.Since(t0))
			if err != nil {
				t.Fatal(err)
			}
		}
		vars, exact := pe.Counts()
		got := [4]int64{pe.Definite(), pe.Potential(), int64(vars), int64(exact)}
		if got != want[k] || pe.Skipped != 0 {
			t.Errorf("k=%d: definite, potential, vars, exact = %v, skipped %d; want %v, none skipped",
				k, got, pe.Skipped, want[k])
		}
		if !raceEnabled && best > 10*time.Millisecond {
			t.Errorf("k=%d: estimation took %v; want under 10ms", k, best)
		}
	}
}

// routeHeavySeed is a generated program (maximum degree 32) with a call site
// in fn2 that more than profile.MaxRoutesPerSite prefixes reach.
const routeHeavySeed = 772

// TestRouteHeavySiteSkipped: a call site past the route bound skips its
// estimation problem, counted in Skipped like one past MaxVars, instead of
// failing the estimate of the whole program — and the overflow is cached
// on the site, so a second estimate does not enumerate the routes again.
func TestRouteHeavySiteSkipped(t *testing.T) {
	s, err := Open(randprog.SeedSource(routeHeavySeed))
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxDegree() != 32 {
		t.Fatalf("max degree %d, want 32", s.MaxDegree())
	}
	run := profileAt(t, s, 1, 0)
	pe, err := s.Estimate(run)
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if pe.Skipped < 1 {
		t.Fatalf("skipped %d problems, want the route-heavy site's", pe.Skipped)
	}
	t0 := time.Now()
	again, err := s.Estimate(run)
	took := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(again) != fingerprint(pe) {
		t.Fatal("second estimate differs from the first")
	}
	if !raceEnabled && took > 10*time.Millisecond {
		t.Errorf("second estimate took %v; want under 10ms once the overflow is cached", took)
	}
}
