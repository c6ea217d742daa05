// Package pathprof's root benchmark harness regenerates every table and
// figure of the paper's evaluation (one testing.B benchmark per artifact)
// and measures the cost of the pipeline stages.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The per-table/figure benchmarks print their artifact once (first
// iteration) and then time the computation; key scalar results are attached
// as benchmark metrics so runs can be compared.
package pathprof

import (
	"fmt"
	"sync"
	"testing"

	"pathprof/internal/bounds"
	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/trace"
	"pathprof/internal/workload"
)

var (
	collectOnce sync.Once
	collected   []*experiments.BenchRun
	collectErr  error
)

func suite(b *testing.B) []*experiments.BenchRun {
	b.Helper()
	collectOnce.Do(func() {
		collected, collectErr = experiments.CollectAll()
	})
	if collectErr != nil {
		b.Fatalf("CollectAll: %v", collectErr)
	}
	return collected
}

var printOnce sync.Map

// emit prints an artifact once per benchmark name.
func emit(b *testing.B, name, text string) {
	if _, done := printOnce.LoadOrStore(name, true); !done {
		fmt.Printf("\n===== %s =====\n%s\n", name, text)
	}
}

// BenchmarkTable1 regenerates Table 1 (flow attributable to interesting
// paths).
func BenchmarkTable1(b *testing.B) {
	runs := suite(b)
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(runs)
	}
	emit(b, "Table 1", experiments.RenderTable1(rows))
	var avgTotal float64
	for _, r := range rows {
		avgTotal += r.TotalPct
	}
	b.ReportMetric(avgTotal/float64(len(rows)), "avg_total_flow_%")
}

// BenchmarkTable8 regenerates Table 8 (definite/potential flows, BL vs
// OL-k).
func BenchmarkTable8(b *testing.B) {
	runs := suite(b)
	var rows []experiments.Table8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table8(runs, estimate.Paper)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "Table 8", experiments.RenderTable8(rows))
	var blDef, olDef float64
	for _, r := range rows {
		blDef += r.BLDefPct
		olDef += r.OLDefPct
	}
	b.ReportMetric(blDef/float64(len(rows)), "avg_BL_definite_err_%")
	b.ReportMetric(olDef/float64(len(rows)), "avg_OL_definite_err_%")
}

// BenchmarkTable9 regenerates Table 9 (instrumentation overhead).
func BenchmarkTable9(b *testing.B) {
	runs := suite(b)
	var rows []experiments.Table9Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table9(runs)
	}
	emit(b, "Table 9", experiments.RenderTable9(rows))
	var bl, all float64
	for _, r := range rows {
		bl += r.BLPct
		all += r.AllPct
	}
	b.ReportMetric(bl/float64(len(rows)), "avg_BL_overhead_%")
	b.ReportMetric(all/float64(len(rows)), "avg_OL_overhead_%")
}

// BenchmarkFigure5 regenerates Figure 5 (estimated flow error vs degree).
func BenchmarkFigure5(b *testing.B) {
	runs := suite(b)
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure5(runs, estimate.Paper)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit(b, "Figure 5", experiments.RenderFigure5(s))
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6 (precisely estimated paths vs
// degree).
func BenchmarkFigure6(b *testing.B) {
	runs := suite(b)
	for i := 0; i < b.N; i++ {
		s, err := experiments.Figure6(runs, estimate.Paper)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit(b, "Figure 6", experiments.RenderFigure6(s))
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 (loop-path profiling overhead).
func BenchmarkFigure7(b *testing.B) {
	runs := suite(b)
	for i := 0; i < b.N; i++ {
		s := experiments.Figure7(runs)
		if i == 0 {
			emit(b, "Figure 7", experiments.RenderFigure7(s))
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8 (interprocedural profiling
// overhead).
func BenchmarkFigure8(b *testing.B) {
	runs := suite(b)
	for i := 0; i < b.N; i++ {
		s := experiments.Figure8(runs)
		if i == 0 {
			emit(b, "Figure 8", experiments.RenderFigure8(s))
		}
	}
}

// BenchmarkFigure9 regenerates Figure 9 (total overlapping-path profiling
// overhead).
func BenchmarkFigure9(b *testing.B) {
	runs := suite(b)
	for i := 0; i < b.N; i++ {
		s := experiments.Figure9(runs)
		if i == 0 {
			emit(b, "Figure 9", experiments.RenderFigure9(s))
		}
	}
}

// BenchmarkAblationSelective regenerates the selective-instrumentation
// ablation (overhead vs precision at shrinking hot-structure coverage).
func BenchmarkAblationSelective(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.SelectiveAblation(workload.ByName("181.mcf"),
			[]float64{1.0, 0.9, 0.5, 0.0}, estimate.Paper)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "Ablation: selective instrumentation", experiments.RenderAblation("181.mcf", rows))
}

// BenchmarkAblationMode regenerates the constraint-set ablation (paper vs
// extended equalities at the BL baseline).
func BenchmarkAblationMode(b *testing.B) {
	runs := suite(b)
	var rows []experiments.ModeAblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.ModeAblation(runs)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "Ablation: constraint modes", experiments.RenderModeAblation(rows))
}

// BenchmarkSpace regenerates the counter-space census (the paper's
// Section 1 quadratic-vs-linear argument).
func BenchmarkSpace(b *testing.B) {
	runs := suite(b)
	var rows []experiments.SpaceRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Space(runs)
		if err != nil {
			b.Fatal(err)
		}
	}
	demo, err := experiments.SpaceDemo()
	if err != nil {
		b.Fatal(err)
	}
	emit(b, "Space", experiments.RenderSpace(append(rows, demo...)))
}

// BenchmarkApplications regenerates the optimization-opportunity census
// (provable cross-backedge PRE savings and caller-fixed callee branches,
// BL vs OL-k).
func BenchmarkApplications(b *testing.B) {
	runs := suite(b)
	var rows []experiments.ApplicationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Applications(runs, estimate.Paper)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "Applications", experiments.RenderApplications(rows))
}

// BenchmarkShowdown regenerates the estimation-hierarchy comparison
// (edge profile -> BL paths -> interesting paths).
func BenchmarkShowdown(b *testing.B) {
	runs := suite(b)
	var rows []experiments.ShowdownRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Showdown(runs, estimate.Paper)
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "Showdown", experiments.RenderShowdown(rows))
}

// BenchmarkAblationChords regenerates the Ball-Larus probe-placement
// ablation (naive vs spanning-tree chords, uniform and profile weighted).
func BenchmarkAblationChords(b *testing.B) {
	var rows []experiments.ChordRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.ChordAblation(workload.All())
		if err != nil {
			b.Fatal(err)
		}
	}
	emit(b, "Ablation: BL probe placement", experiments.RenderChordAblation(rows))
}

// --- pipeline-stage microbenchmarks ---

func mustBench(b *testing.B, name string) (*workload.Benchmark, *profile.Info) {
	b.Helper()
	wb := workload.ByName(name)
	prog, err := wb.Compile()
	if err != nil {
		b.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	return wb, info
}

// BenchmarkInterpreterBaseline measures uninstrumented execution.
func BenchmarkInterpreterBaseline(b *testing.B) {
	wb, info := mustBench(b, "300.twolf")
	_ = info
	var steps int64
	for i := 0; i < b.N; i++ {
		prog, _ := wb.Compile()
		m := interp.New(prog, wb.Seed)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps
	}
	b.ReportMetric(float64(steps), "blocks/run")
}

// BenchmarkBLProfiling measures a Ball-Larus instrumented run.
func BenchmarkBLProfiling(b *testing.B) {
	wb, info := mustBench(b, "300.twolf")
	for i := 0; i < b.N; i++ {
		prog, _ := wb.Compile()
		m := interp.New(prog, wb.Seed)
		rt, err := instrument.New(info, instrument.Config{K: -1}, m)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if rt.Err != nil {
			b.Fatal(rt.Err)
		}
	}
}

// BenchmarkOLProfiling measures a full overlapping-path instrumented run at
// k = max/3.
func BenchmarkOLProfiling(b *testing.B) {
	wb, info := mustBench(b, "300.twolf")
	k := (info.MaxDegree() + 2) / 3
	for i := 0; i < b.N; i++ {
		prog, _ := wb.Compile()
		m := interp.New(prog, wb.Seed)
		rt, err := instrument.New(info, instrument.Config{K: k, Loops: true, Interproc: true}, m)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if rt.Err != nil {
			b.Fatal(rt.Err)
		}
	}
}

// benchmarkCounterStore measures a full OL instrumented run (300.twolf at
// k = max/3) writing through one CounterStore layout, plan construction
// amortized via a cached plan as the pipeline would share it.
func benchmarkCounterStore(b *testing.B, kind profile.StoreKind) {
	wb, info := mustBench(b, "300.twolf")
	prog, _ := wb.Compile()
	k := (info.MaxDegree() + 2) / 3
	plan, err := instrument.BuildPlan(info, instrument.Config{K: k, Loops: true, Interproc: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := interp.New(prog, wb.Seed)
		rt := plan.Attach(m, profile.NewStore(kind, info, 2))
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if rt.Err != nil {
			b.Fatal(rt.Err)
		}
		if c := rt.Counters(); len(c.BL) == 0 {
			b.Fatal("no counters")
		}
	}
}

// BenchmarkCounterStoreNested measures the nested-map store (the paper's
// hash-backed four-tuple layout).
func BenchmarkCounterStoreNested(b *testing.B) { benchmarkCounterStore(b, profile.StoreNested) }

// BenchmarkCounterStoreArena measures the dense-arena store (per-region
// perfect slot mappings with map overflow).
func BenchmarkCounterStoreArena(b *testing.B) { benchmarkCounterStore(b, profile.StoreArena) }

// BenchmarkEngineRun measures one full OL instrumented run (300.twolf at
// k = max/3) on each engine x store cell, all static artifacts (plan,
// register code) amortized through a shared pipeline. This is the
// head-to-head per-run comparison of the register machine with
// superinstruction fusion against the tree-walking reference interpreter,
// each on the arena and on the nested reference store.
func BenchmarkEngineRun(b *testing.B) {
	wb := workload.ByName("300.twolf")
	prog, err := wb.Compile()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := (p.Info.MaxDegree() + 2) / 3
	cfg := instrument.Config{K: k, Loops: true, Interproc: true}
	if _, err := p.RegCode(cfg); err != nil {
		b.Fatal(err)
	}
	for _, eng := range []pipeline.Engine{pipeline.EngineTree, pipeline.EngineReg} {
		for _, st := range []profile.StoreKind{profile.StoreNested, profile.StoreArena} {
			b.Run(fmt.Sprintf("%s/%s", eng, st), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run, err := p.ExecuteStore(eng, cfg, wb.Seed, nil, profile.NewStore(st, p.Info, 2), 0)
					if err != nil {
						b.Fatal(err)
					}
					if len(run.Counters.BL) == 0 {
						b.Fatal("no counters")
					}
				}
			})
		}
	}
}

// BenchmarkEngineRunSteady measures the register engine's pooled
// steady-state path: one arena store and one pooled machine reused across
// every iteration through pipeline.ExecuteSteady. This is the
// configuration the issue's < 1 ms / 0 allocs target is stated against.
func BenchmarkEngineRunSteady(b *testing.B) {
	wb := workload.ByName("300.twolf")
	prog, err := wb.Compile()
	if err != nil {
		b.Fatal(err)
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	k := (p.Info.MaxDegree() + 2) / 3
	cfg := instrument.Config{K: k, Loops: true, Interproc: true}
	store := profile.NewStore(profile.StoreArena, p.Info, 2)
	// Warm the code cache, the machine pool, and the store's overflow maps.
	if err := p.ExecuteSteady(cfg, wb.Seed, store); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ExecuteSteady(cfg, wb.Seed, store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionProfileOL is a warm run as library users make it: one
// default-option core.Session per bundled program, warmed once, then every
// program profiled at its chosen degree (experiments.BenchRun.KChosen) per
// iteration, with the counters materialized into each Run as callers
// receive them.
func BenchmarkSessionProfileOL(b *testing.B) {
	type warm struct {
		s    *core.Session
		seed uint64
		k    int
	}
	var ws []warm
	for _, wb := range workload.All() {
		s, err := core.Open(wb.Source)
		if err != nil {
			b.Fatalf("%s: %v", wb.Name, err)
		}
		w := warm{s: s, seed: wb.Seed, k: (&experiments.BenchRun{MaxK: s.MaxDegree()}).KChosen()}
		if _, err := s.ProfileOL(w.seed, w.k); err != nil {
			b.Fatalf("%s: %v", wb.Name, err)
		}
		ws = append(ws, w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			if _, err := w.s.ProfileOL(w.seed, w.k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepTreeVsVM measures one benchmark's full degree sweep
// (compile, analyze, trace, then every degree -1..max) on the tree
// reference and on the register machine, each on a one-slot pool and the
// default store.
func BenchmarkSweepTreeVsVM(b *testing.B) {
	wb := workload.ByName("300.twolf")
	pool := pipeline.NewPool(1)
	for _, eng := range []pipeline.Engine{pipeline.EngineTree, pipeline.EngineReg} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.CollectWithOptions(wb, pool, experiments.DefaultStore, eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectSequentialVsPooled measures one benchmark's full degree
// sweep on a one-slot pool (the old sequential behavior) against the
// default bounded pool.
func BenchmarkCollectSequentialVsPooled(b *testing.B) {
	for _, arm := range []struct {
		name string
		pool *pipeline.Pool
	}{
		{"sequential", pipeline.NewPool(1)},
		{"pooled", pipeline.NewPool(0)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.CollectWith(workload.ByName("300.twolf"), arm.pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroundTruthTracer measures the WPP-equivalent tracer.
func BenchmarkGroundTruthTracer(b *testing.B) {
	wb, info := mustBench(b, "300.twolf")
	for i := 0; i < b.N; i++ {
		prog, _ := wb.Compile()
		m := interp.New(prog, wb.Seed)
		tr := trace.NewTracer(info, m)
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if tr.Err != nil {
			b.Fatal(tr.Err)
		}
	}
}

// BenchmarkBoundSolver measures the iterative bound solver on a dense
// synthetic problem.
func BenchmarkBoundSolver(b *testing.B) {
	const n = 40
	p := &bounds.Problem{N: n * n, Caps: make([]int64, n*n)}
	for i := range p.Caps {
		p.Caps[i] = int64(i%17) * 10
	}
	for r := 0; r < n; r++ {
		vars := make([]int, n)
		var sum int64
		for c := 0; c < n; c++ {
			vars[c] = r*n + c
			sum += int64((r * c) % 13)
		}
		p.Groups = append(p.Groups, bounds.Group{Vars: vars, Value: sum, Equality: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bounds.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimation measures whole-program estimation at k = max/3.
func BenchmarkEstimation(b *testing.B) {
	wb, _ := mustBench(b, "181.mcf")
	prog, _ := wb.Compile()
	s, err := core.OpenProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	k := (s.MaxDegree() + 2) / 3
	run, err := s.ProfileOL(wb.Seed, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Estimate(run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequitur measures WPP grammar construction.
func BenchmarkSequitur(b *testing.B) {
	// A loopy synthetic trace.
	var seq []int32
	for i := 0; i < 5000; i++ {
		if i%3 == 0 {
			seq = append(seq, 1, 2, 3, 4)
		} else {
			seq = append(seq, 1, 2, 5, 4)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := trace.NewGrammar()
		for _, s := range seq {
			g.Append(s)
		}
	}
	b.ReportMetric(float64(len(seq)), "symbols")
}
