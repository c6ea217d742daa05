// Package experiments regenerates every table and figure of the paper's
// evaluation section on the bundled benchmark suite: Table 1 (flow
// attribution), Figures 5/6 (estimation precision versus degree of overlap),
// Figures 7/8/9 (profiling overhead versus degree), and Tables 8/9 (the
// summary rows at k ≈ max/3).
package experiments

import (
	"errors"
	"fmt"
	"sync"

	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/overhead"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/trace"
	"pathprof/internal/workload"
)

// DefaultStore is the counter-store layout benchmark collection uses (the
// paged arena, the zero value; the cross-validation tests prove it
// identical to the nested-map store). CLIs may override it before
// collection starts.
var DefaultStore profile.StoreKind

// DefaultEngine is the execution engine benchmark collection uses (the
// register machine with superinstruction fusion; the oracle battery proves
// it identical to the tree-walking reference). CLIs may override it before
// collection starts.
var DefaultEngine = pipeline.EngineReg

// KRun is the outcome of one instrumented run at a fixed degree.
type KRun struct {
	K        int
	Counters *profile.Counters
	Report   overhead.Report
}

// BenchRun bundles everything collected for one benchmark: the ground-truth
// trace plus one instrumented run per degree from -1 (BL only) to the
// program's maximum.
type BenchRun struct {
	B      *workload.Benchmark
	Info   *profile.Info
	Tracer *trace.Tracer
	// BaseOps is the uninstrumented operation count.
	BaseOps int64
	MaxK    int
	// Runs holds the per-degree instrumented runs; Runs[k+1] is degree k.
	Runs []*KRun

	realFlows *trace.RealFlows
	sess      *core.Session
}

// At returns the degree-k run.
func (br *BenchRun) At(k int) *KRun { return br.Runs[k+1] }

// Real returns the exact interesting-path flows (cached).
func (br *BenchRun) Real() (trace.RealFlows, error) {
	if br.realFlows != nil {
		return *br.realFlows, nil
	}
	rf, err := br.Tracer.Flows()
	if err != nil {
		return rf, err
	}
	br.realFlows = &rf
	return rf, nil
}

// Collect runs one benchmark through the whole pipeline, sweeping the
// degrees on the shared worker pool.
func Collect(b *workload.Benchmark) (*BenchRun, error) {
	return CollectWith(b, pipeline.Shared())
}

// CollectWith is Collect on an explicit worker pool (a one-slot pool
// reproduces the old strictly sequential sweep), using the package-default
// store and engine.
func CollectWith(b *workload.Benchmark, pool *pipeline.Pool) (*BenchRun, error) {
	return CollectWithOptions(b, pool, DefaultStore, DefaultEngine)
}

// CollectWithOptions is CollectWith with the counter store and execution
// engine chosen per call. The static artifacts — analysis, plans, OL
// graphs, and on the register engine the compiled code — are built once on
// the benchmark's pipeline and shared by every degree's run; only the
// executions themselves fan out.
func CollectWithOptions(b *workload.Benchmark, pool *pipeline.Pool, store profile.StoreKind, eng pipeline.Engine) (*BenchRun, error) {
	var (
		br  *BenchRun
		p   *pipeline.Pipeline
		err error
	)
	// The prelude (compile, analyze, ground-truth trace) is one unit of
	// pool work; the per-degree runs then fan out as their own units.
	pool.Do(func() { br, p, err = collectBase(b, pool, store, eng) })
	if err != nil {
		return nil, err
	}

	br.Runs = make([]*KRun, br.MaxK+2)
	errs := make([]error, br.MaxK+2)
	var wg sync.WaitGroup
	for k := -1; k <= br.MaxK; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			pool.Do(func() {
				run, rerr := p.Execute(instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}, b.Seed, nil)
				if rerr != nil {
					errs[k+1] = fmt.Errorf("%s k=%d: %w", b.Name, k, rerr)
					return
				}
				br.Runs[k+1] = &KRun{K: k, Counters: run.Counters, Report: run.Overhead}
			})
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return br, nil
}

// collectBase builds the benchmark's pipeline and ground truth.
func collectBase(b *workload.Benchmark, pool *pipeline.Pool, store profile.StoreKind, eng pipeline.Engine) (*BenchRun, *pipeline.Pipeline, error) {
	prog, err := b.Compile()
	if err != nil {
		return nil, nil, err
	}
	p, err := pipeline.New(prog, pipeline.Options{Store: store, Engine: eng, Pool: pool})
	if err != nil {
		return nil, nil, err
	}
	tr, mt, err := p.Trace(b.Seed, false, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: trace run: %w", b.Name, err)
	}
	br := &BenchRun{B: b, Info: p.Info, Tracer: tr, BaseOps: mt.BaseOps, MaxK: p.Info.MaxDegree(),
		sess: core.FromPipeline(p)}
	return br, p, nil
}

// CollectAll runs the full benchmark suite. Benchmarks fan out
// concurrently, but every heavy stage — each prelude, each per-degree
// instrumented run — draws a slot from the one shared pool, so total
// parallelism stays bounded (default GOMAXPROCS; see
// pipeline.SetParallelism) instead of the previous unbounded
// one-goroutine-per-benchmark free-for-all. All failures are reported,
// joined, not just an arbitrary one of N.
func CollectAll() ([]*BenchRun, error) {
	benches := workload.All()
	out := make([]*BenchRun, len(benches))
	errs := make([]error, len(benches))
	pool := pipeline.Shared()
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, b *workload.Benchmark) {
			defer wg.Done()
			out[i], errs[i] = CollectWith(b, pool)
		}(i, b)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// KChosen returns the paper's operating point: approximately one third of
// the maximum possible overlap, and at least 1.
func (br *BenchRun) KChosen() int {
	k := (br.MaxK + 2) / 3
	if k < 1 {
		k = 1
	}
	if k > br.MaxK {
		k = br.MaxK
	}
	return k
}

// FlowEstimate aggregates a whole-program estimation at one degree.
type FlowEstimate struct {
	// Real, Definite and Potential are total interesting-path flows.
	Real, Definite, Potential int64
	// Vars counts interesting paths considered; Exact those with equal
	// bounds.
	Vars, Exact int
	// Skipped counts estimation problems over the size limit.
	Skipped int
}

// EstimateAll solves every loop and call-edge estimation problem of the
// benchmark at degree k and aggregates the flows: a fold over the
// program-wide estimate core.Session.EstimateMode makes from the degree-k
// run.
func EstimateAll(br *BenchRun, k int, mode estimate.Mode) (FlowEstimate, error) {
	var fe FlowEstimate
	rf, err := br.Real()
	if err != nil {
		return fe, err
	}
	fe.Real = int64(rf.Total())
	pe, err := br.Estimate(k, mode)
	if err != nil {
		return fe, err
	}
	fe.Definite, fe.Potential = pe.Definite(), pe.Potential()
	fe.Vars, fe.Exact = pe.Counts()
	fe.Skipped = pe.Skipped
	return fe, nil
}

// Estimate solves every estimation problem of the degree-k run.
func (br *BenchRun) Estimate(k int, mode estimate.Mode) (*core.ProgramEstimate, error) {
	pe, err := br.sess.EstimateMode(core.RunFromCounters(k, 2, br.At(k).Counters), mode)
	if err != nil {
		return nil, fmt.Errorf("%s k=%d: %w", br.B.Name, k, err)
	}
	return pe, nil
}
