// Command pathprof compiles a program in the bundled language, profiles it
// with Ball-Larus or overlapping-path instrumentation, and reports hot
// paths, interesting-path bound estimates, overheads, flow attribution, and
// dumps (IR, CFG DOT, whole-program-path compression stats).
//
// Usage:
//
//	pathprof -src prog.pl [-seed N] [-k K] [-iters N] [-mode paper|extended] [actions]
//	pathprof -bench 300.twolf [same flags]
//
// -bench profiles a bundled benchmark (internal/workload) by name instead
// of a source file; -seed then defaults to the benchmark's canonical seed.
//
// Actions (any combination):
//
//	-hot N        print the N hottest Ball-Larus paths
//	-estimate     print interesting-path flow bounds at degree K
//	-pairs N      print hot interesting pairs with lower bound >= N
//	-attr         print Table-1-style flow attribution (runs the tracer)
//	-overhead     print instrumentation overhead percentages
//	-wpp          collect a SEQUITUR-compressed whole program path and
//	              print its compression statistics
//	-dump-ir      print the lowered IR
//	-dump-instr F print function F's instrumentation plan at degree -k
//	-dot FUNC     print FUNC's CFG in Graphviz DOT syntax
//	-run          echo the program's own print output
//
// Profile-guided layout report:
//
//	pathprof -bench 300.twolf -k 1 -save-profile twolf.prof
//	pathprof -bench 300.twolf -k 1 -pgo twolf.prof
//
// -pgo FILE derives a superblock layout plan from the counters in FILE
// (written by -save-profile, folded by -merge, or exported by pathprofd's
// /v1/pgo endpoint) and prints it as JSON, followed by a one-line summary
// of how many functions it reorders: the dominant paths as fall-through
// spines and cold blocks out of line, as a native backend would lay them
// out. The plan is a report; the run itself and every other action are
// unchanged by -pgo.
//
// Aggregation mode (no -src; pairs with -save-profile / -load-profile):
//
//	pathprof -merge OUT a.prof b.prof ...
//	pathprof -merge OUT -bench 181.mcf -k 1 /var/lib/pathprofd/data
//
// folds profiles saved with -save-profile — e.g. the same program run at
// different seeds, or shards collected by separate pathprofd instances —
// into OUT, loadable with -load-profile for estimation over the fleet. An
// argument that is a directory is opened read-only as a pathprofd profile
// store (-data-dir; docs/FORMAT.md documents the layout) and contributes
// the fleet cell selected by -bench/-k/-iters — the offline inspection
// path for a daemon's durable state, recovery blames printed to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pathprof/internal/cfg"
	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/limits"
	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/pgo"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/profstore"
	"pathprof/internal/stats"
	"pathprof/internal/workload"
)

// cellSelector narrows a profile store's fleet cells to the one -merge
// should read, from the -bench/-k/-iters flags (unset axes match anything).
type cellSelector struct {
	bench          string
	k, iters       int
	kSet, itersSet bool
}

func (sel cellSelector) matches(key profstore.CellKey) bool {
	if sel.bench != "" && key.Bench != sel.bench {
		return false
	}
	if sel.kSet && key.K != sel.k {
		return false
	}
	if sel.itersSet && key.Iters != sel.iters {
		return false
	}
	return true
}

// storeCell opens dir read-only as a pathprofd profile store and returns the
// single fleet cell the selector picks, listing the available cells when the
// selection is empty or ambiguous. Recovery blames go to stderr — inspection
// must surface damage, not hide it.
func storeCell(dir string, sel cellSelector) (*merge.Snapshot, error) {
	st, err := profstore.Open(dir, profstore.Config{ReadOnly: true})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	defer st.Close() //nolint:errcheck // read-only
	for _, c := range st.Corruptions() {
		fmt.Fprintf(os.Stderr, "pathprof: %s: corrupt record skipped: %s\n", dir, c.String())
	}
	cells := st.Cells()
	var keys []profstore.CellKey
	for key := range cells {
		if sel.matches(key) {
			keys = append(keys, key)
		}
	}
	if len(keys) == 1 {
		return cells[keys[0]], nil
	}
	all := make([]string, 0, len(cells))
	for key := range cells {
		all = append(all, key.String())
	}
	sort.Strings(all)
	if len(keys) == 0 {
		return nil, fmt.Errorf("%s: no fleet cell matches the selection; store holds: %s",
			dir, strings.Join(all, ", "))
	}
	names := make([]string, len(keys))
	for i, key := range keys {
		names[i] = key.String()
	}
	sort.Strings(names)
	return nil, fmt.Errorf("%s: selection is ambiguous (%s); pin it with -bench/-k/-iters",
		dir, strings.Join(names, ", "))
}

// mergeProfiles implements -merge: fold saved profile files — and selected
// cells of profile store directories — into one.
func mergeProfiles(out string, files []string, sel cellSelector) error {
	if len(files) < 1 {
		return fmt.Errorf("-merge needs at least one profile file or store directory argument")
	}
	snaps := make([]*merge.Snapshot, 0, len(files))
	for _, path := range files {
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			snap, err := storeCell(path, sel)
			if err != nil {
				return err
			}
			snaps = append(snaps, snap)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		run, err := core.LoadRun(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		snaps = append(snaps, merge.New(run.K, run.Iters, run.Counters))
	}
	merged, err := merge.MergeAll(snaps...)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := core.SaveRun(f, core.RunFromCounters(merged.K, merged.Iters, merged.Counters)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("merged %d profiles (k=%d, %d functions) into %s\n",
		len(files), merged.K, merged.NumFuncs, out)
	return nil
}

// printLayout implements -pgo: derive the layout plan from the saved
// profile at path and print it, then a one-line reorder summary.
func printLayout(info *profile.Info, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	pr, err := core.LoadRun(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	plan, err := pgo.Derive(info, &pgo.Profile{K: pr.K, Iters: pr.Iters, Counters: pr.Counters})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := plan.Encode(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("pgo: layout from %s (profile k=%d): %d of %d functions reordered\n",
		path, plan.K, plan.Reordered(), len(plan.Funcs))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pathprof:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		srcPath  = flag.String("src", "", "source file to profile (this or -bench is required)")
		benchNm  = flag.String("bench", "", "profile the named bundled benchmark (see internal/workload) instead of -src")
		seed     = flag.Uint64("seed", 1, "deterministic RNG seed for the run")
		k        = flag.Int("k", -1, "degree of overlap (-1 = Ball-Larus only)")
		iters    = flag.Int("iters", 2, "overlapping-path window width in loop iterations (2 = classic)")
		modeName = flag.String("mode", "paper", "estimation constraint mode: paper or extended")
		hot      = flag.Int("hot", 0, "print the N hottest BL paths")
		doEst    = flag.Bool("estimate", false, "print interesting-path bound estimates")
		pairs    = flag.Int64("pairs", -1, "print interesting pairs with lower bound >= N")
		attr     = flag.Bool("attr", false, "print flow attribution (Table 1 style)")
		ovh      = flag.Bool("overhead", false, "print instrumentation overhead")
		wpp      = flag.Bool("wpp", false, "collect + report a compressed whole program path")
		dumpIR   = flag.Bool("dump-ir", false, "print the lowered IR")
		dumpInst = flag.String("dump-instr", "", "print FUNC's instrumentation plan at degree -k")
		saveProf = flag.String("save-profile", "", "write the collected counters to FILE")
		loadProf = flag.String("load-profile", "", "estimate from counters in FILE instead of running")
		pgoPath  = flag.String("pgo", "", "print the profile-guided layout plan derived from the counters in FILE")
		dotFunc  = flag.String("dot", "", "print the named function's CFG as DOT")
		echo     = flag.Bool("run", false, "echo the program's print output")
		storeNm  = flag.String("store", "arena", "counter store layout: arena or nested (the reference)")
		engNm    = flag.String("engine", "regvm", "execution engine: regvm (register machine, fused superinstructions) or tree (reference interpreter)")
		mergeOut = flag.String("merge", "", "fold the profile FILEs given as arguments into OUT and exit")
		doTrace  = flag.Bool("trace", false, "render a span tree of the run's stages to stderr")
	)
	flag.Parse()

	if *mergeOut != "" {
		sel := cellSelector{bench: *benchNm, k: *k, iters: *iters}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k":
				sel.kSet = true
			case "iters":
				sel.itersSet = true
			}
		})
		return mergeProfiles(*mergeOut, flag.Args(), sel)
	}
	if *srcPath == "" && *benchNm == "" {
		flag.Usage()
		return fmt.Errorf("-src or -bench is required")
	}
	if *srcPath != "" && *benchNm != "" {
		return fmt.Errorf("-src and -bench are mutually exclusive")
	}
	if err := limits.K(*k); err != nil {
		return err
	}
	if err := limits.Iters(*iters); err != nil {
		return err
	}
	store, ok := profile.ParseStoreKind(*storeNm)
	if !ok {
		return fmt.Errorf("unknown -store %q", *storeNm)
	}
	eng, ok := pipeline.ParseEngine(*engNm)
	if !ok {
		return fmt.Errorf("unknown -engine %q", *engNm)
	}
	// The span tree is always built (spans are two timestamps and a mutex)
	// and rendered only under -trace, keeping the stage timings out of the
	// control flow.
	root := obs.NewSpan("pathprof")
	defer func() {
		root.End()
		if *doTrace {
			fmt.Fprint(os.Stderr, obs.Render(root.Tree()))
		}
	}()

	runSeed := *seed
	var src string
	if *benchNm != "" {
		b := workload.ByName(*benchNm)
		if b == nil {
			return fmt.Errorf("unknown -bench %q (see internal/workload for the bundled set)", *benchNm)
		}
		src = b.Source
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		if !seedSet {
			runSeed = b.Seed
		}
	} else {
		raw, err := os.ReadFile(*srcPath)
		if err != nil {
			return err
		}
		src = string(raw)
	}

	compileSpan := root.Child("compile")
	s, err := core.OpenOptions(src, pipeline.Options{Store: store, Engine: eng})
	compileSpan.End()
	if err != nil {
		return err
	}
	if *echo {
		s.Out = os.Stdout
	}
	if *pgoPath != "" {
		if err := printLayout(s.Info, *pgoPath); err != nil {
			return err
		}
	}

	mode := estimate.Paper
	switch *modeName {
	case "paper":
	case "extended":
		mode = estimate.Extended
	default:
		return fmt.Errorf("unknown -mode %q", *modeName)
	}

	if *dumpIR {
		fmt.Print(s.Prog.String())
	}
	if *dotFunc != "" {
		fn := s.Prog.FuncByName(*dotFunc)
		if fn == nil {
			return fmt.Errorf("no function %q", *dotFunc)
		}
		fmt.Print(cfg.Dot(fn.CFG(), nil))
	}
	if *dumpInst != "" {
		idx := s.Prog.FuncIndex(*dumpInst)
		if idx < 0 {
			return fmt.Errorf("no function %q", *dumpInst)
		}
		text, err := instrument.DescribePlan(s.Info, instrument.Config{K: *k, Loops: *k >= 0, Interproc: *k >= 0, Iters: *iters}, idx)
		if err != nil {
			return err
		}
		fmt.Print(text)
	}

	fmt.Printf("program: %d functions, max overlap degree %d\n", len(s.Prog.Funcs), s.MaxDegree())

	var runRes *core.Run
	if *loadProf != "" {
		f, err := os.Open(*loadProf)
		if err != nil {
			return err
		}
		runRes, err = core.LoadRun(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("loaded counters from %s (profile degree k=%d)\n", *loadProf, runRes.K)
	} else if *hot > 0 || *doEst || *pairs >= 0 || *ovh || *saveProf != "" {
		profSpan := root.Child("profile")
		profSpan.SetAttr("k", fmt.Sprint(*k))
		profSpan.SetAttr("iters", fmt.Sprint(*iters))
		if *k < 0 {
			runRes, err = s.ProfileBL(runSeed)
		} else {
			runRes, err = s.ProfileOLIters(runSeed, *k, *iters)
		}
		profSpan.End()
		if err != nil {
			return err
		}
		if runRes.Iters > 2 {
			fmt.Printf("profiled at k=%d iters=%d: %d blocks executed\n", runRes.K, runRes.Iters, runRes.Steps)
		} else {
			fmt.Printf("profiled at k=%d: %d blocks executed\n", runRes.K, runRes.Steps)
		}
	}
	if *saveProf != "" && runRes != nil {
		f, err := os.Create(*saveProf)
		if err != nil {
			return err
		}
		if err := core.SaveRun(f, runRes); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("counters written to %s\n", *saveProf)
	}

	if *hot > 0 {
		paths, err := s.HottestPaths(runRes, *hot)
		if err != nil {
			return err
		}
		fmt.Printf("\nhottest %d Ball-Larus paths:\n%s", len(paths), core.FormatHotPaths(paths))
	}

	if *ovh {
		r := runRes.Overhead
		fmt.Printf("\noverhead: BL %.1f%%, OL loop %.1f%%, OL interproc %.1f%%, OL all %.1f%%\n",
			r.BLPct(), r.LoopPct(), r.InterPct(), r.AllPct())
	}

	var pe *core.ProgramEstimate
	if *doEst || *pairs >= 0 {
		estSpan := root.Child("estimate")
		pe, err = s.EstimateMode(runRes, mode)
		estSpan.End()
		if err != nil {
			return err
		}
	}
	if *doEst {
		fmt.Printf("\nestimate: %s\n", pe.Summary())
	}
	if *pairs >= 0 {
		lp := s.HotLoopPairs(pe, *pairs)
		fmt.Printf("\nhot loop pairs (lower..upper, [RR] = repeating iteration):\n%s", core.FormatLoopPairs(lp))
		cp, err := s.HotCrossingPairs(pe, *pairs)
		if err != nil {
			return err
		}
		fmt.Printf("\nhot interprocedural pairs:\n%s", core.FormatCrossingPairs(cp))
	}

	if *attr || *wpp {
		traceSpan := root.Child("trace")
		tr, err := s.Trace(runSeed)
		traceSpan.End()
		if err != nil {
			return err
		}
		if *attr {
			a := tr.Attr
			t := stats.NewTable("Loop Backedges %", "Procedure Boundaries %", "Total %")
			t.Row(fmt.Sprintf("%.1f", a.LoopPct()), fmt.Sprintf("%.1f", a.ProcPct()), fmt.Sprintf("%.1f", a.TotalPct()))
			fmt.Printf("\nflow attributable to interesting paths:\n%s", t.String())
		}
		if *wpp {
			trw, err := s.TraceWPP(runSeed)
			if err != nil {
				return err
			}
			rules, stored := trw.WPP.Stats()
			fmt.Printf("\nwhole program path: %d blocks traced, %d grammar rules, %d stored symbols (%.1fx compression)\n",
				trw.WPP.Symbols, rules, stored, trw.WPP.Ratio())
		}
	}
	return nil
}
