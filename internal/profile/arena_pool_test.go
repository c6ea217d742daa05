package profile_test

// Whole-program coverage of the paged arena on the bundled programs: a
// store reset for reuse (as the pipeline pools it) collects exactly what a
// fresh nested store does, pages are allocated only where a run counts,
// and a store sized for degree k keeps dense every key a max-degree store
// keeps dense.

import (
	"bytes"
	"fmt"
	"testing"

	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/workload"
)

// arenaProgram is one bundled program with its pipeline.
type arenaProgram struct {
	wb *workload.Benchmark
	p  *pipeline.Pipeline
}

func bundledPrograms(t *testing.T) []arenaProgram {
	t.Helper()
	var out []arenaProgram
	for _, wb := range workload.All() {
		prog, err := wb.Compile()
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.New(prog, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, arenaProgram{wb: wb, p: p})
	}
	return out
}

// arenaConfigs is the k ∈ {-1, KChosen, max} grid.
func arenaConfigs(info *profile.Info) []instrument.Config {
	maxK := info.MaxDegree()
	var out []instrument.Config
	for _, k := range []int{-1, (&experiments.BenchRun{MaxK: maxK}).KChosen(), maxK} {
		out = append(out, instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0})
	}
	return out
}

func serialized(t *testing.T, c *profile.Counters) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := c.Serialize(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// numKeys counts every counter key of c.
func numKeys(c *profile.Counters) int {
	n := len(c.Loop) + len(c.TypeI) + len(c.TypeII) + len(c.Calls)
	for _, m := range c.BL {
		n += len(m)
	}
	return n
}

// runInto executes one register-engine run of cfg at seed into store.
func runInto(t *testing.T, ap arenaProgram, cfg instrument.Config, seed uint64, store profile.CounterStore) *pipeline.Run {
	t.Helper()
	run, err := ap.p.ExecuteStore(pipeline.EngineReg, cfg, seed, nil, store, 0)
	if err != nil {
		t.Fatalf("%s k=%d seed=%d: %v", ap.wb.Name, cfg.K, seed, err)
	}
	return run
}

// TestArenaPooledReuseMatchesFresh runs seed A and then, after Reset, seed
// B on one degree-sized store; B's counters must serialize byte-for-byte
// like a fresh nested store's, overflow keys included.
func TestArenaPooledReuseMatchesFresh(t *testing.T) {
	overflowed := map[string]bool{}
	for _, ap := range bundledPrograms(t) {
		for _, cfg := range arenaConfigs(ap.p.Info) {
			store := profile.NewArenaStoreK(ap.p.Info, cfg.K)
			runInto(t, ap, cfg, ap.wb.Seed+1, store)
			if numKeys(store.Overflow()) > 0 {
				overflowed[ap.wb.Name] = true
			}
			store.Reset()
			got := runInto(t, ap, cfg, ap.wb.Seed, store)
			want := runInto(t, ap, cfg, ap.wb.Seed, profile.NewNestedStore(len(ap.p.Info.Funcs)))
			if !bytes.Equal(serialized(t, got.Counters), serialized(t, want.Counters)) {
				t.Errorf("%s k=%d: reused arena store diverges from a fresh nested store", ap.wb.Name, cfg.K)
			}
		}
	}
	// The reuse must be exercised through the overflow maps too.
	if !overflowed["134.perl"] {
		t.Errorf("no 134.perl run reached the overflow maps (programs that did: %v)", overflowed)
	}
}

// TestArenaPagesHoldCounters: after one run on a fresh store, every
// allocated page holds at least one non-zero counter — pages follow the
// counters a run touches.
func TestArenaPagesHoldCounters(t *testing.T) {
	for _, ap := range bundledPrograms(t) {
		for _, cfg := range arenaConfigs(ap.p.Info) {
			store := profile.NewArenaStoreK(ap.p.Info, cfg.K)
			runInto(t, ap, cfg, ap.wb.Seed, store)
			allocated, empty := store.Pages()
			if allocated == 0 || empty != 0 {
				t.Errorf("%s k=%d: %d pages allocated, %d of them empty", ap.wb.Name, cfg.K, allocated, empty)
			}
		}
	}
}

// TestArenaDegreeStoreKeepsDense: a store sized for degree k sends no key
// of a degree-k run to overflow that a store sized for every degree keeps
// dense (route counts are monotone in k). Every bundled region fits its
// arena, so only indirect call sites, which have no static callee
// dimension, may overflow.
func TestArenaDegreeStoreKeepsDense(t *testing.T) {
	for _, ap := range bundledPrograms(t) {
		for k := -1; k <= ap.p.Info.MaxDegree(); k++ {
			cfg := instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}
			deg := profile.NewArenaStoreK(ap.p.Info, k)
			all := profile.NewArenaStore(ap.p.Info)
			runInto(t, ap, cfg, ap.wb.Seed, deg)
			runInto(t, ap, cfg, ap.wb.Seed, all)
			if extra := overflowOnly(deg.Overflow(), all.Overflow()); len(extra) > 0 {
				t.Errorf("%s k=%d: degree-sized store overflows keys the max-degree store keeps dense: %v",
					ap.wb.Name, k, extra)
			}
			if direct := directOverflow(ap.p.Info, deg.Overflow()); len(direct) > 0 {
				t.Errorf("%s k=%d: keys overflow at direct call sites or outside call sites: %v",
					ap.wb.Name, k, direct)
			}
		}
	}
}

// directOverflow lists the overflowed keys of c that are not Type I or
// Type II keys of an indirect call site.
func directOverflow(info *profile.Info, c *profile.Counters) []string {
	indirect := func(caller, site int) bool { return info.Funcs[caller].CallSites[site].Indirect }
	var out []string
	for f, m := range c.BL {
		for id := range m {
			out = append(out, fmt.Sprintf("BL %d/%d", f, id))
		}
	}
	for k := range c.Loop {
		out = append(out, fmt.Sprintf("loop %+v", k))
	}
	for k := range c.TypeI {
		if !indirect(k.Caller, k.Site) {
			out = append(out, fmt.Sprintf("typeI %+v", k))
		}
	}
	for k := range c.TypeII {
		if !indirect(k.Caller, k.Site) {
			out = append(out, fmt.Sprintf("typeII %+v", k))
		}
	}
	for k := range c.Calls {
		out = append(out, fmt.Sprintf("call %+v", k))
	}
	return out
}

// overflowOnly lists the keys of a that b lacks.
func overflowOnly(a, b *profile.Counters) []string {
	var out []string
	for f, m := range a.BL {
		for id := range m {
			if _, ok := b.BL[f][id]; !ok {
				out = append(out, fmt.Sprintf("BL %d/%d", f, id))
			}
		}
	}
	for k := range a.Loop {
		if _, ok := b.Loop[k]; !ok {
			out = append(out, fmt.Sprintf("loop %+v", k))
		}
	}
	for k := range a.TypeI {
		if _, ok := b.TypeI[k]; !ok {
			out = append(out, fmt.Sprintf("typeI %+v", k))
		}
	}
	for k := range a.TypeII {
		if _, ok := b.TypeII[k]; !ok {
			out = append(out, fmt.Sprintf("typeII %+v", k))
		}
	}
	for k := range a.Calls {
		if _, ok := b.Calls[k]; !ok {
			out = append(out, fmt.Sprintf("call %+v", k))
		}
	}
	return out
}
