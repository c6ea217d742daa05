// Package e2e_test fuzzes the whole pipeline with randomly generated
// programs: every program must flow through compile → analyze → trace →
// instrument → estimate with (a) instrumented counters identical to the
// trace-derived expectations, key for key, at several degrees, and (b) sound
// frequency bounds for every interesting path.
package e2e_test

import (
	"fmt"
	"testing"

	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
	"pathprof/internal/trace"
)

// The step budgets are shared with the oracle battery and the randprog
// sweep so every harness agrees on what "too heavy to validate" means.
const maxFuzzSteps = randprog.MaxOracleSteps

func TestFuzzPipeline(t *testing.T) {
	seeds := 45
	if testing.Short() {
		seeds = 8
	}
	validated := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := randprog.SeedSource(seed)
		if fuzzOne(t, seed, src) {
			validated++
		}
		if t.Failed() {
			t.Fatalf("seed %d failed; source:\n%s", seed, src)
		}
	}
	if validated < seeds/2 {
		t.Fatalf("only %d/%d seeds small enough to validate; generator drifted heavy", validated, seeds)
	}
}

// fuzzOne returns true if the seed was fully cross-validated (false if the
// program was too heavy and was skipped after the trace run).
func fuzzOne(t *testing.T, seed int64, src string) bool {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Errorf("seed %d: compile: %v", seed, err)
		return false
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Errorf("seed %d: analyze: %v", seed, err)
		return false
	}

	mt := interp.New(prog, uint64(seed))
	mt.MaxSteps = randprog.MaxRunSteps
	tr := trace.NewTracer(info, mt)
	if err := mt.Run(); err != nil {
		t.Errorf("seed %d: trace run: %v", seed, err)
		return false
	}
	if tr.Err != nil {
		t.Errorf("seed %d: tracer: %v", seed, tr.Err)
		return false
	}
	if mt.Steps > maxFuzzSteps {
		return false // too heavy for the full sweep; plenty of seeds remain
	}

	maxK := info.MaxDegree()
	for _, k := range []int{0, 1 + maxK/2, maxK} {
		m := interp.New(prog, uint64(seed))
		m.MaxSteps = randprog.MaxRunSteps
		rt, err := instrument.New(info, instrument.Config{K: k, Loops: true, Interproc: true}, m)
		if err != nil {
			t.Errorf("seed %d k=%d: %v", seed, k, err)
			return false
		}
		if err := m.Run(); err != nil {
			t.Errorf("seed %d k=%d: run: %v", seed, k, err)
			return false
		}
		if rt.Err != nil {
			t.Errorf("seed %d k=%d: runtime: %v", seed, k, rt.Err)
			return false
		}

		// Counter-level cross-validation.
		wantLoop, err := tr.ExpectedLoopCounters(k)
		if err != nil {
			t.Errorf("seed %d k=%d: expected loop counters: %v", seed, k, err)
			return false
		}
		if msg := diffMaps(toAny(rt.Counters().Loop), toAny(wantLoop)); msg != "" {
			t.Errorf("seed %d k=%d: loop counters: %s", seed, k, msg)
			return false
		}
		wantT1, err := tr.ExpectedTypeI(k)
		if err != nil {
			t.Errorf("seed %d k=%d: expected T1: %v", seed, k, err)
			return false
		}
		if msg := diffMaps(toAny(rt.Counters().TypeI), toAny(wantT1)); msg != "" {
			t.Errorf("seed %d k=%d: typeI counters: %s", seed, k, msg)
			return false
		}
		wantT2, err := tr.ExpectedTypeII(k)
		if err != nil {
			t.Errorf("seed %d k=%d: expected T2: %v", seed, k, err)
			return false
		}
		if msg := diffMaps(toAny(rt.Counters().TypeII), toAny(wantT2)); msg != "" {
			t.Errorf("seed %d k=%d: typeII counters: %s", seed, k, msg)
			return false
		}
		for f := range tr.BL {
			for id, n := range tr.BL[f] {
				if rt.Counters().BL[f][id] != n {
					t.Errorf("seed %d k=%d: BL func %d path %d: %d != %d",
						seed, k, f, id, rt.Counters().BL[f][id], n)
					return false
				}
			}
		}

		// Estimation soundness on every loop.
		if !checkEstimates(t, seed, k, info, tr, rt) {
			return false
		}
	}
	return true
}

func checkEstimates(t *testing.T, seed int64, k int, info *profile.Info, tr *trace.Tracer, rt *instrument.Runtime) bool {
	t.Helper()
	pairs, err := tr.LoopPairs()
	if err != nil {
		t.Errorf("seed %d: pairs: %v", seed, err)
		return false
	}
	for fidx, fi := range info.Funcs {
		for _, li := range fi.Loops {
			res, err := estimate.Loop(fi, li, rt.Counters().BL[fidx], rt.Counters().Loop, k, estimate.Paper)
			if err != nil {
				t.Errorf("seed %d k=%d: loop estimate: %v", seed, k, err)
				return false
			}
			for pk, cnt := range pairs {
				if pk.Func != fidx || pk.Loop != li.Index {
					continue
				}
				lo, hi := res.Bounds(int64(pk.I), int64(pk.J))
				if lo > int64(cnt) || hi < int64(cnt) {
					t.Errorf("seed %d k=%d: %s loop %d pair(%d,%d): [%d,%d] misses %d",
						seed, k, fi.Fn.Name, li.Index, pk.I, pk.J, lo, hi, cnt)
					return false
				}
			}
		}
	}
	// Interprocedural soundness at the aggregate level (per call edge).
	for ck, calls := range tr.Calls {
		caller := info.Funcs[ck.Caller]
		cs := caller.CallSites[ck.Site]
		r1, err := estimate.TypeI(info, caller, cs, ck.Callee,
			rt.Counters().BL[ck.Caller], rt.Counters().BL[ck.Callee], rt.Counters().TypeI, calls, k, estimate.Paper)
		if err == estimate.ErrTooLarge {
			continue
		}
		if err != nil {
			t.Errorf("seed %d k=%d: typeI estimate %v: %v", seed, k, ck, err)
			return false
		}
		var real int64
		for adj, n := range tr.T1 {
			if adj.Caller == ck.Caller && adj.Site == ck.Site && adj.Callee == ck.Callee {
				real += int64(n)
			}
		}
		if r1.Definite() > real || r1.Potential() < real {
			t.Errorf("seed %d k=%d: typeI %v: [%d,%d] misses %d",
				seed, k, ck, r1.Definite(), r1.Potential(), real)
			return false
		}
	}
	return true
}

func toAny[K comparable](m map[K]uint64) map[any]uint64 {
	out := make(map[any]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func diffMaps(got, want map[any]uint64) string {
	for k, w := range want {
		if got[k] != w {
			return fmt.Sprintf("key %+v: got %d, want %d", k, got[k], w)
		}
	}
	for k, g := range got {
		if want[k] != g {
			return fmt.Sprintf("unexpected key %+v: got %d, want %d", k, g, want[k])
		}
	}
	return ""
}
