// Command experiments regenerates the paper's evaluation tables and figures
// on the bundled benchmark suite.
//
// Usage:
//
//	experiments [-exp all|table1|table8|table9|fig5|fig6|fig7|fig8|fig9]
//	            [-mode paper|extended] [-bench NAME]
//	            [-parallel N] [-store arena|nested] [-engine regvm|tree]
//	            [-bench-json FILE] [-bench-n N]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Each figure prints as one data series per benchmark (degree, value)
// pairs; tables print in the paper's row layout with an Average row.
// Collection fans out over a bounded worker pool (-parallel, default
// GOMAXPROCS); -cpuprofile/-memprofile write pprof profiles of the sweep.
// -bench-json runs the pipeline microbenchmarks (engine x store per-run
// cells plus full sweeps on both engines) instead of the experiments and
// writes the measurements to FILE as JSON; -bench-n sets iterations per
// cell. -engine tree and -store nested select the references the defaults
// (regvm, arena) are checked against.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pathprof/internal/estimate"
	"pathprof/internal/experiments"
	"pathprof/internal/obs"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/stats"
	"pathprof/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expName   = flag.String("exp", "all", "which experiment to regenerate: table1, table8, table9, fig5..fig9, space, applications, showdown, ablation-selective, ablation-mode, ablation-chords, all")
		modeName  = flag.String("mode", "paper", "estimation constraint mode: paper or extended")
		benchName = flag.String("bench", "", "restrict to one benchmark (default: all nine)")
		plot      = flag.Bool("plot", false, "render figures as ASCII bar charts instead of series lists")
		parallel  = flag.Int("parallel", 0, "worker-pool size for the collection sweep (0 = GOMAXPROCS)")
		storeName = flag.String("store", "arena", "counter store layout: arena or nested (the reference)")
		engName   = flag.String("engine", "regvm", "execution engine: regvm (register machine, fused superinstructions) or tree (reference interpreter)")
		benchJSON = flag.String("bench-json", "", "run pipeline microbenchmarks and write results to FILE as JSON")
		benchN    = flag.Int("bench-n", 0, "iterations per microbenchmark cell (0 = default)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the sweep to FILE")
		memProf   = flag.String("memprofile", "", "write a heap profile to FILE at exit")
		doTrace   = flag.Bool("trace", false, "render a span tree of the collection sweep to stderr")
	)
	flag.Parse()

	store, ok := profile.ParseStoreKind(*storeName)
	if !ok {
		return fmt.Errorf("unknown -store %q", *storeName)
	}
	experiments.DefaultStore = store
	eng, ok := pipeline.ParseEngine(*engName)
	if !ok {
		return fmt.Errorf("unknown -engine %q", *engName)
	}
	experiments.DefaultEngine = eng
	pipeline.SetParallelism(*parallel)

	if *benchJSON != "" {
		name := *benchName
		if name == "" {
			name = "300.twolf"
		}
		fmt.Fprintf(os.Stderr, "microbenchmarking %s (engine x store grid + sweeps)...\n", name)
		results, err := experiments.Microbench(name, *benchN)
		if err != nil {
			return err
		}
		if err := experiments.WriteBenchJSON(*benchJSON, results); err != nil {
			return err
		}
		for _, r := range results {
			fmt.Printf("%-6s %-10s %-6s %-7s %14.0f ns/op %12.0f allocs/op\n",
				r.Name, r.Bench, r.Engine, r.Store, r.NsPerOp, r.AllocsPerOp)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *benchJSON)
		return nil
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	mode := estimate.Paper
	switch *modeName {
	case "paper":
	case "extended":
		mode = estimate.Extended
	default:
		return fmt.Errorf("unknown -mode %q", *modeName)
	}

	benches := workload.All()
	if *benchName != "" {
		b := workload.ByName(*benchName)
		if b == nil {
			return fmt.Errorf("no benchmark %q", *benchName)
		}
		benches = benches[:0]
		benches = append(benches, b)
	}

	fmt.Fprintf(os.Stderr, "collecting %d benchmark(s), sweeping every overlap degree...\n", len(benches))
	root := obs.NewSpan("experiments")
	defer func() {
		root.End()
		if *doTrace {
			fmt.Fprint(os.Stderr, obs.Render(root.Tree()))
		}
	}()
	var runs []*experiments.BenchRun
	for _, b := range benches {
		collectSpan := root.Child("collect")
		collectSpan.SetAttr("bench", b.Name)
		br, err := experiments.Collect(b)
		collectSpan.End()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "  %-14s max degree %2d, %7d blocks per run\n", b.Name, br.MaxK, br.At(-1).Report.BaseOps)
		runs = append(runs, br)
	}

	want := func(name string) bool { return *expName == "all" || *expName == name }
	var sections []string

	if want("table1") {
		sections = append(sections, experiments.RenderTable1(experiments.Table1(runs)))
	}
	render := func(caption string, series []*stats.Series) string {
		if *plot {
			return caption + "\n" + stats.Plot(series, 50)
		}
		text := caption + "\n"
		for _, s := range series {
			text += s.String() + "\n"
		}
		return text
	}
	if want("fig5") {
		s, err := experiments.Figure5(runs, mode)
		if err != nil {
			return err
		}
		sections = append(sections, render("Figure 5: estimated total flow error (%) vs degree of overlap (x=-1 is BL)", s))
	}
	if want("fig6") {
		s, err := experiments.Figure6(runs, mode)
		if err != nil {
			return err
		}
		sections = append(sections, render("Figure 6: precisely estimated interesting paths (%) vs degree of overlap", s))
	}
	if want("fig7") {
		sections = append(sections, render("Figure 7: overhead of profiling OL loop paths (%) vs degree", experiments.Figure7(runs)))
	}
	if want("fig8") {
		sections = append(sections, render("Figure 8: overhead of profiling OL interprocedural paths (%) vs degree", experiments.Figure8(runs)))
	}
	if want("fig9") {
		sections = append(sections, render("Figure 9: overhead of profiling all OL paths (%) vs degree", experiments.Figure9(runs)))
	}
	if want("table8") {
		rows, err := experiments.Table8(runs, mode)
		if err != nil {
			return err
		}
		sections = append(sections, experiments.RenderTable8(rows))
	}
	if want("table9") {
		sections = append(sections, experiments.RenderTable9(experiments.Table9(runs)))
	}
	if want("ablation-selective") {
		for _, b := range benches {
			rows, err := experiments.SelectiveAblation(b, []float64{1.0, 0.9, 0.5, 0.0}, mode)
			if err != nil {
				return err
			}
			sections = append(sections, experiments.RenderAblation(b.Name, rows))
		}
	}
	if want("ablation-mode") {
		rows, err := experiments.ModeAblation(runs)
		if err != nil {
			return err
		}
		sections = append(sections, experiments.RenderModeAblation(rows))
	}
	if want("space") {
		rows, err := experiments.Space(runs)
		if err != nil {
			return err
		}
		demo, err := experiments.SpaceDemo()
		if err != nil {
			return err
		}
		sections = append(sections, experiments.RenderSpace(append(rows, demo...)))
	}
	if want("applications") {
		rows, err := experiments.Applications(runs, mode)
		if err != nil {
			return err
		}
		sections = append(sections, experiments.RenderApplications(rows))
	}
	if want("showdown") {
		rows, err := experiments.Showdown(runs, mode)
		if err != nil {
			return err
		}
		sections = append(sections, experiments.RenderShowdown(rows))
	}
	if want("ablation-chords") {
		rows, err := experiments.ChordAblation(benches)
		if err != nil {
			return err
		}
		sections = append(sections, experiments.RenderChordAblation(rows))
	}
	if len(sections) == 0 {
		return fmt.Errorf("unknown -exp %q", *expName)
	}
	fmt.Println(strings.Join(sections, "\n"))
	return nil
}
