package estimate

import (
	"fmt"
	"testing"

	"pathprof/internal/instrument"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
)

// TestSparseMatchesDense is the exactness argument for dropping zero-cap
// pairs, checked on the oracle corpus: every problem is rebuilt dense —
// the zero-cap pairs put back as variables, in every group they belong to
// — solved with bounds.Solve, and each of its bounds compared with what
// the sparse problem reports for the pair (a pair without a variable reads
// [0, 0]). N, Exact, Definite and Potential must agree too, in both
// constraint modes, at every degree the oracle profiles.
func TestSparseMatchesDense(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	seeds, err := randprog.HarvestCorpus(n, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	var live, all int
	for _, s := range seeds {
		p, err := pipeline.Compile(randprog.SeedSource(s.GenSeed), pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for k := -1; k <= min(2, p.Info.MaxDegree()); k++ {
			run, err := p.Execute(instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}, uint64(s.GenSeed), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []Mode{Paper, Extended} {
				where := fmt.Sprintf("seed %d k=%d %v", s.GenSeed, k, mode)
				l, a := compareDense(t, where, p.Info, run.Counters, k, mode)
				live += l
				all += a
			}
		}
	}
	if live >= all {
		t.Fatalf("%d live variables of %d pairs: the corpus never drops a pair", live, all)
	}
	t.Logf("%d live variables of %d pairs", live, all)
}

// compareDense estimates every problem of one profile sparse and dense and
// compares them; it returns the variable counts of both.
func compareDense(t *testing.T, where string, info *profile.Info, c *profile.Counters, k int, mode Mode) (live, all int) {
	t.Helper()
	sparse, dense := NewBatch(info, c), NewBatch(info, c)
	dense.dense = true
	check := func(what string, s, d *Estimate) {
		t.Helper()
		live += s.Vars()
		all += d.Vars()
		if d.Vars() != d.N {
			t.Fatalf("%s %s: dense problem has %d variables for %d pairs", where, what, d.Vars(), d.N)
		}
		if s.N != d.N || s.Exact() != d.Exact() || s.Definite() != d.Definite() || s.Potential() != d.Potential() {
			t.Fatalf("%s %s: sparse N=%d exact=%d [%d,%d], dense N=%d exact=%d [%d,%d]", where, what,
				s.N, s.Exact(), s.Definite(), s.Potential(), d.N, d.Exact(), d.Definite(), d.Potential())
		}
		for v := 0; v < d.Vars(); v++ {
			row, col, lo, hi := d.Pair(v)
			if slo, shi := s.Bounds(row, col); slo != lo || shi != hi {
				t.Fatalf("%s %s pair (%d,%d): sparse [%d,%d], dense [%d,%d]", where, what, row, col, slo, shi, lo, hi)
			}
		}
	}
	for _, fi := range info.Funcs {
		for _, li := range fi.Loops {
			s, err := sparse.Loop(fi, li, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			d, err := dense.Loop(fi, li, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("loop %s/%d", fi.Fn.Name, li.Index), &s.Estimate, &d.Estimate)
		}
	}
	for ck, calls := range c.Calls {
		caller := info.Funcs[ck.Caller]
		cs := caller.CallSites[ck.Site]
		for _, typ := range []string{"I", "II"} {
			estimate := sparse.TypeI
			reference := dense.TypeI
			if typ == "II" {
				estimate, reference = sparse.TypeII, dense.TypeII
			}
			d, err := reference(caller, cs, ck.Callee, calls, k, mode)
			if err == ErrTooLarge {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			s, err := estimate(caller, cs, ck.Callee, calls, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("type %s %+v", typ, ck), &s.Estimate, &d.Estimate)
		}
	}
	return live, all
}
