package pipeline_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/workload"
)

// serialize renders counters in the stable on-disk form.
func serialize(t *testing.T, c *profile.Counters) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := c.Serialize(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCachedPlanMatchesFreshPlan is the cross-validation the refactor
// hinges on: a run through the pipeline's cached plan (and pooled arena
// store) must produce byte-identical serialized counters to a run that builds
// everything fresh (instrument.New on a fresh Analyze, nested store).
func TestCachedPlanMatchesFreshPlan(t *testing.T) {
	for _, name := range []string{"181.mcf", "300.twolf", "130.li"} {
		b := workload.ByName(name)
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		p, err := pipeline.New(prog, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := p.Info.MaxDegree() / 2
		cfg := instrument.Config{K: k, Loops: true, Interproc: true}

		// Two pipeline runs: the second hits the plan cache.
		run1, err := p.Execute(cfg, b.Seed, nil)
		if err != nil {
			t.Fatalf("%s: first pipeline run: %v", name, err)
		}
		run2, err := p.Execute(cfg, b.Seed, nil)
		if err != nil {
			t.Fatalf("%s: cached pipeline run: %v", name, err)
		}
		if p.CachedPlans() != 1 {
			t.Fatalf("%s: want 1 cached plan, have %d", name, p.CachedPlans())
		}

		// A fresh-plan run sharing nothing with the pipeline.
		freshInfo, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		m := interp.New(prog, b.Seed)
		rt, err := instrument.New(freshInfo, cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if rt.Err != nil {
			t.Fatal(rt.Err)
		}

		want := serialize(t, rt.Counters())
		if got := serialize(t, run1.Counters); !bytes.Equal(got, want) {
			t.Fatalf("%s k=%d: pipeline run diverges from fresh-plan run", name, k)
		}
		if got := serialize(t, run2.Counters); !bytes.Equal(got, want) {
			t.Fatalf("%s k=%d: cached-plan run diverges from fresh-plan run", name, k)
		}
	}
}

// TestPlanCacheSingleflight: concurrent Plan calls for one configuration
// must all receive the same plan instance, built once.
func TestPlanCacheSingleflight(t *testing.T) {
	b := workload.ByName("181.mcf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := instrument.Config{K: 1, Loops: true, Interproc: true}
	const callers = 16
	plans := make([]*instrument.Plan, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl, err := p.Plan(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = pl
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("caller %d received a different plan instance", i)
		}
	}
	if p.CachedPlans() != 1 {
		t.Fatalf("want 1 cached plan, have %d", p.CachedPlans())
	}
}

// TestCachedCodesCountsEveryEngine: CachedCodes counts compiled register
// code, so one run on the default register engine caches exactly one
// program, a second run at the same configuration reuses it, and the tree
// engine caches none.
func TestCachedCodesCountsEveryEngine(t *testing.T) {
	b := workload.ByName("181.mcf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := instrument.Config{K: 1, Loops: true, Interproc: true}
	for _, tc := range []struct {
		engine pipeline.Engine
		want   int
	}{
		{pipeline.EngineReg, 1},
		{pipeline.EngineTree, 0},
	} {
		p, err := pipeline.New(prog, pipeline.Options{Engine: tc.engine})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			if _, err := p.Execute(cfg, b.Seed, nil); err != nil {
				t.Fatalf("%s: %v", tc.engine, err)
			}
			if got := p.CachedCodes(); got != tc.want {
				t.Fatalf("%s run %d: CachedCodes() = %d, want %d", tc.engine, run+1, got, tc.want)
			}
		}
	}
}

// TestParseEngineAndStoreKind: the -engine and -store flag values
// round-trip through String, and the retired vm, pgo and flat values are
// rejected.
func TestParseEngineAndStoreKind(t *testing.T) {
	for _, e := range []pipeline.Engine{pipeline.EngineReg, pipeline.EngineTree} {
		if got, ok := pipeline.ParseEngine(e.String()); !ok || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, true", e.String(), got, ok, e)
		}
	}
	for _, k := range []profile.StoreKind{profile.StoreArena, profile.StoreNested} {
		if got, ok := profile.ParseStoreKind(k.String()); !ok || got != k {
			t.Errorf("ParseStoreKind(%q) = %v, %v; want %v, true", k.String(), got, ok, k)
		}
	}
	for _, s := range []string{"vm", "pgo", "flat", ""} {
		if _, ok := pipeline.ParseEngine(s); ok {
			t.Errorf("ParseEngine(%q) accepted a value that names no engine", s)
		}
		if _, ok := profile.ParseStoreKind(s); ok {
			t.Errorf("ParseStoreKind(%q) accepted a value that names no store", s)
		}
	}
}

// TestParallelSweepDeterminism: every degree profiled concurrently through
// one pipeline must match its sequentially profiled twin.
func TestParallelSweepDeterminism(t *testing.T) {
	b := workload.ByName("181.mcf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxK := p.Info.MaxDegree()
	seq := make([][]byte, maxK+1)
	for k := 0; k <= maxK; k++ {
		run, err := p.Execute(instrument.Config{K: k, Loops: true, Interproc: true}, b.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq[k] = serialize(t, run.Counters)
	}
	pool := pipeline.NewPool(4)
	var wg sync.WaitGroup
	for k := 0; k <= maxK; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pool.Do(func() {
				run, err := p.Execute(instrument.Config{K: k, Loops: true, Interproc: true}, b.Seed, nil)
				if err != nil {
					t.Errorf("k=%d: %v", k, err)
					return
				}
				if !bytes.Equal(serialize(t, run.Counters), seq[k]) {
					t.Errorf("k=%d: parallel run diverges from sequential run", k)
				}
			})
		}(k)
	}
	wg.Wait()
}

// TestPoolBoundsConcurrency: a pool of n slots must never run more than n
// tasks at once.
func TestPoolBoundsConcurrency(t *testing.T) {
	const bound = 3
	pool := pipeline.NewPool(bound)
	if pool.Size() != bound {
		t.Fatalf("pool size %d, want %d", pool.Size(), bound)
	}
	var active, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Do(func() {
				n := active.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				for j := 0; j < 1000; j++ { // linger so overlap is observable
					_ = j
				}
				active.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > bound {
		t.Fatalf("observed %d concurrent tasks, bound is %d", got, bound)
	}
}

// TestConcurrentExecuteMatchesSequential: Execute calls on one
// configuration from 8 goroutines, sharing the configuration's pooled
// arena stores, collect exactly what sequential runs collect — and no
// earlier Run's counters change while later runs reuse its store.
func TestConcurrentExecuteMatchesSequential(t *testing.T) {
	b := workload.ByName("300.twolf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := instrument.Config{K: (p.Info.MaxDegree() + 2) / 3, Loops: true, Interproc: true}
	const workers, perWorker = 8, 3
	runs := make([]*pipeline.Run, workers*perWorker)
	want := make([][]byte, len(runs))
	for i := range runs {
		run, err := p.Execute(cfg, b.Seed+uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], want[i] = run, serialize(t, run.Counters)
	}
	ref, err := p.ExecuteStore(pipeline.EngineReg, cfg, b.Seed, nil, profile.NewNestedStore(len(p.Info.Funcs)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want[0], serialize(t, ref.Counters)) {
		t.Fatal("pooled arena run diverges from a nested-store run")
	}

	got := make([][]byte, len(runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < perWorker; r++ {
				// Interleave seeds so no goroutine replays a sequential order.
				i := r*workers + (w+r)%workers
				run, err := p.Execute(cfg, b.Seed+uint64(i), nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = serialize(t, run.Counters)
			}
		}(w)
	}
	wg.Wait()
	for i := range runs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("seed %d: concurrent run diverges from sequential run", b.Seed+uint64(i))
		}
		if !bytes.Equal(serialize(t, runs[i].Counters), want[i]) {
			t.Errorf("seed %d: sequential run's counters changed after later runs reused its store", b.Seed+uint64(i))
		}
	}
}
