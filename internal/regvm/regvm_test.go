package regvm_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/ir"
	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
	"pathprof/internal/regvm"
)

// treeRun executes source on the tree engine under cfg, returning the
// machine, runtime, and error.
func treeRun(t *testing.T, source string, seed uint64, cfg instrument.Config, out *bytes.Buffer, maxSteps int64) (*interp.Machine, *instrument.Runtime, error) {
	t.Helper()
	prog, err := lang.Compile(source)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	m := interp.New(prog, seed)
	if out != nil {
		m.Out = out
	}
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	rt, err := instrument.New(info, cfg, m)
	if err != nil {
		t.Fatalf("instrument.New: %v", err)
	}
	err = m.Run()
	if err == nil && rt.Err != nil {
		t.Fatalf("runtime error: %v", rt.Err)
	}
	return m, rt, err
}

// regRun executes source on the register engine under cfg.
func regRun(t *testing.T, source string, seed uint64, cfg instrument.Config, out *bytes.Buffer, maxSteps int64) (*regvm.Machine, profile.CounterStore, error) {
	t.Helper()
	prog, err := lang.Compile(source)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	plan, err := instrument.BuildPlan(info, cfg)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	code, err := regvm.Compile(prog, plan)
	if err != nil {
		t.Fatalf("regvm.Compile: %v", err)
	}
	m := regvm.NewMachine(code, seed)
	if out != nil {
		m.Out = out
	}
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	st := profile.NewNestedStore(len(info.Funcs))
	return m, st, m.Run(st)
}

// assertParity compares everything both engines expose for one (source,
// seed, cfg) triple.
func assertParity(t *testing.T, source string, seed uint64, cfg instrument.Config) {
	t.Helper()
	var treeOut, regOut bytes.Buffer
	tm, rt, terr := treeRun(t, source, seed, cfg, &treeOut, 0)
	rm, st, rerr := regRun(t, source, seed, cfg, &regOut, 0)
	if terr != nil || rerr != nil {
		t.Fatalf("run errors: tree=%v regvm=%v", terr, rerr)
	}
	if tm.Steps != rm.Steps || tm.BaseOps != rm.BaseOps {
		t.Fatalf("steps/baseops: tree=(%d,%d) regvm=(%d,%d)", tm.Steps, tm.BaseOps, rm.Steps, rm.BaseOps)
	}
	if !bytes.Equal(treeOut.Bytes(), regOut.Bytes()) {
		t.Fatalf("print output differs:\ntree:  %q\nregvm: %q", treeOut.String(), regOut.String())
	}
	if rt.BLOps != rm.BLOps || rt.LoopOps != rm.LoopOps || rt.InterOps != rm.InterOps {
		t.Fatalf("probe ops: tree=(%d,%d,%d) regvm=(%d,%d,%d)",
			rt.BLOps, rt.LoopOps, rt.InterOps, rm.BLOps, rm.LoopOps, rm.InterOps)
	}
	tc, rc := rt.Counters(), st.Counters()
	if !reflect.DeepEqual(tc, rc) {
		t.Fatalf("counters differ (k=%d loops=%v inter=%v)", cfg.K, cfg.Loops, cfg.Interproc)
	}
}

// TestCorpusParity runs randprog corpus programs on both engines across
// degrees and checks byte-identical behavior: output, step counts, probe-op
// tallies, and counters.
func TestCorpusParity(t *testing.T) {
	seeds, err := randprog.HarvestCorpus(8, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		src := randprog.SeedSource(s.GenSeed)
		for _, c := range []struct{ k, iters int }{{0, 0}, {2, 0}} {
			cfg := instrument.Config{K: c.k, Loops: true, Interproc: true, Iters: c.iters}
			t.Run(fmt.Sprintf("seed%d/k%d/iters%d", s.GenSeed, c.k, c.iters), func(t *testing.T) {
				assertParity(t, src, uint64(s.GenSeed), cfg)
			})
		}
	}
}

// TestChordParity checks the chord-placement op accounting matches on both
// engines.
func TestChordParity(t *testing.T) {
	seeds, err := randprog.HarvestCorpus(3, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		src := randprog.SeedSource(s.GenSeed)
		cfg := instrument.Config{K: 1, Loops: true, Interproc: true, ChordBL: true}
		t.Run(fmt.Sprintf("seed%d", s.GenSeed), func(t *testing.T) {
			assertParity(t, src, uint64(s.GenSeed), cfg)
		})
	}
}

// TestSelectionParity checks selective instrumentation (a non-nil
// Selection picking only the first loop and site of each function) matches.
func TestSelectionParity(t *testing.T) {
	seeds, err := randprog.HarvestCorpus(3, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		src := randprog.SeedSource(s.GenSeed)
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		sel := &profile.Selection{Loops: map[profile.LoopID]bool{}, Sites: map[profile.SiteID]bool{}}
		for _, fi := range info.Funcs {
			if len(fi.Loops) > 0 {
				sel.Loops[profile.LoopID{Func: fi.Index, Loop: 0}] = true
			}
			if len(fi.CallSites) > 0 {
				sel.Sites[profile.SiteID{Func: fi.Index, Site: 0}] = true
			}
		}
		cfg := instrument.Config{K: 2, Loops: true, Interproc: true, Selection: sel}
		t.Run(fmt.Sprintf("seed%d", s.GenSeed), func(t *testing.T) {
			assertParity(t, src, uint64(s.GenSeed), cfg)
		})
	}
}

// TestStepLimitParity checks both engines stop with ErrStepLimit at the
// same step count.
func TestStepLimitParity(t *testing.T) {
	src := "func main() { while (1) { } }"
	cfg := instrument.Config{K: 1, Loops: true, Interproc: true}
	tm, _, terr := treeRun(t, src, 1, cfg, nil, 1000)
	rm, _, rerr := regRun(t, src, 1, cfg, nil, 1000)
	if !errors.Is(terr, interp.ErrStepLimit) || !errors.Is(rerr, interp.ErrStepLimit) {
		t.Fatalf("want ErrStepLimit on both: tree=%v regvm=%v", terr, rerr)
	}
	if tm.Steps != rm.Steps {
		t.Fatalf("steps at limit: tree=%d regvm=%d", tm.Steps, rm.Steps)
	}
}

// TestDepthLimitParity checks the call-depth error is identical.
func TestDepthLimitParity(t *testing.T) {
	src := "func f() { f(); } func main() { f(); }"
	cfg := instrument.Config{K: 0, Loops: true, Interproc: true}
	_, _, terr := treeRun(t, src, 1, cfg, nil, 0)
	_, _, rerr := regRun(t, src, 1, cfg, nil, 0)
	if terr == nil || rerr == nil || terr.Error() != rerr.Error() {
		t.Fatalf("depth errors differ: tree=%v regvm=%v", terr, rerr)
	}
	if !strings.Contains(rerr.Error(), "call depth limit") {
		t.Fatalf("unexpected error: %v", rerr)
	}
}

// TestRuntimeErrorParity checks runtime errors carry the same
// function/block context on both engines, byte for byte.
func TestRuntimeErrorParity(t *testing.T) {
	cases := []struct{ name, src string }{
		{"div by zero", "func main() { var z = 0; print(1 / z); }"},
		{"mod by zero", "func main() { var z = 0; print(1 % z); }"},
		{"array oob", "array a[4]; func main() { a[9] = 1; }"},
		{"array negative", "array a[4]; func main() { var i = -1; a[i] = 1; }"},
		{"bad indirect", "func main() { var f = 99; f(); }"},
	}
	cfg := instrument.Config{K: 1, Loops: true, Interproc: true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, terr := treeRun(t, tc.src, 1, cfg, nil, 0)
			_, _, rerr := regRun(t, tc.src, 1, cfg, nil, 0)
			if terr == nil || rerr == nil {
				t.Fatalf("want errors on both engines: tree=%v regvm=%v", terr, rerr)
			}
			if terr.Error() != rerr.Error() {
				t.Fatalf("error text differs:\ntree:  %s\nregvm: %s", terr, rerr)
			}
		})
	}
}

// TestUninstrumentedExecution checks plain (plan-less) compilation executes
// identically to an uninstrumented tree run.
func TestUninstrumentedExecution(t *testing.T) {
	seeds, err := randprog.HarvestCorpus(5, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		src := randprog.SeedSource(s.GenSeed)
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		var treeOut, regOut bytes.Buffer
		tm := interp.New(prog, uint64(s.GenSeed))
		tm.Out = &treeOut
		if err := tm.Run(); err != nil {
			t.Fatal(err)
		}
		code, err := regvm.Compile(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		rm := regvm.NewMachine(code, uint64(s.GenSeed))
		rm.Out = &regOut
		if err := rm.Run(nil); err != nil {
			t.Fatal(err)
		}
		if tm.Steps != rm.Steps || tm.BaseOps != rm.BaseOps {
			t.Fatalf("seed %d: steps/baseops: tree=(%d,%d) regvm=(%d,%d)",
				s.GenSeed, tm.Steps, tm.BaseOps, rm.Steps, rm.BaseOps)
		}
		if !bytes.Equal(treeOut.Bytes(), regOut.Bytes()) {
			t.Fatalf("seed %d: output differs", s.GenSeed)
		}
		if rm.Counters() != nil {
			t.Fatal("uninstrumented run has counters")
		}
	}
}

// TestNoMain checks the missing-main error matches the tree engine. The
// frontend rejects main-less sources, so strip main from a compiled program.
func TestNoMain(t *testing.T) {
	full, err := lang.Compile("func f() { } func main() { f(); }")
	if err != nil {
		t.Fatal(err)
	}
	var fns []*ir.Func
	for _, fn := range full.Funcs {
		if fn.Name != "main" {
			fns = append(fns, fn)
		}
	}
	prog := &ir.Program{Funcs: fns}
	code, err := regvm.Compile(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	rerr := regvm.NewMachine(code, 1).Run(nil)
	terr := interp.New(prog, 1).Run()
	if rerr == nil || terr == nil || rerr.Error() != terr.Error() {
		t.Fatalf("no-main errors differ: tree=%v regvm=%v", terr, rerr)
	}
}

// compileCorpus compiles one instrumented corpus program for reuse tests.
func compileCorpus(t *testing.T, n int, cfg instrument.Config) (src string, seed uint64, code *regvm.Program, numFuncs int) {
	t.Helper()
	seeds, err := randprog.HarvestCorpus(n, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	s := seeds[len(seeds)-1]
	src = randprog.SeedSource(s.GenSeed)
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := instrument.BuildPlan(info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, err = regvm.Compile(prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	return src, uint64(s.GenSeed), code, len(info.Funcs)
}

// TestMachineResetReuse checks a pooled machine re-armed with Reset behaves
// byte-identically to a fresh machine: same output, ops, and counters.
func TestMachineResetReuse(t *testing.T) {
	cfg := instrument.Config{K: 2, Loops: true, Interproc: true}
	_, seed, code, numFuncs := compileCorpus(t, 4, cfg)

	run := func(m *regvm.Machine) (*profile.Counters, []byte, [5]int64) {
		var out bytes.Buffer
		m.Out = &out
		st := profile.NewNestedStore(numFuncs)
		if err := m.Run(st); err != nil {
			t.Fatal(err)
		}
		return st.Counters(), out.Bytes(), [5]int64{m.Steps, m.BaseOps, m.BLOps, m.LoopOps, m.InterOps}
	}

	fresh := regvm.NewMachine(code, seed)
	wantC, wantOut, wantOps := run(fresh)

	pooled := regvm.NewMachine(code, 12345)
	if _, err := pooled.Counters(), pooled.Run(profile.NewNestedStore(numFuncs)); err != nil {
		t.Fatal(err)
	}
	pooled.Reset(seed)
	gotC, gotOut, gotOps := run(pooled)

	if wantOps != gotOps {
		t.Fatalf("ops differ after Reset: fresh=%v pooled=%v", wantOps, gotOps)
	}
	if !bytes.Equal(wantOut, gotOut) {
		t.Fatalf("output differs after Reset")
	}
	if !reflect.DeepEqual(wantC, gotC) {
		t.Fatalf("counters differ after Reset")
	}
}

// TestZeroAllocSteadyState checks a warmed machine re-run through Reset
// allocates nothing: every frame, register window, suffix list, and
// print buffer comes from machine-owned slabs, and counter increments hit
// existing store keys.
func TestZeroAllocSteadyState(t *testing.T) {
	cfg := instrument.Config{K: 2, Loops: true, Interproc: true}
	_, seed, code, numFuncs := compileCorpus(t, 4, cfg)

	m := regvm.NewMachine(code, seed)
	st := profile.NewNestedStore(numFuncs)
	if err := m.Run(st); err != nil {
		t.Fatal(err)
	}
	var runErr error
	allocs := testing.AllocsPerRun(10, func() {
		m.Reset(seed)
		if err := m.Run(st); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// TestFusionStats checks the fusion pass actually fires on real programs
// and that the documented superinstruction list is in sync with the ISA.
func TestFusionStats(t *testing.T) {
	want := []string{"StepMove", "StepBin", "StepLoad", "StepJump", "StepBranch", "Charge", "ChargeJump", "Probe", "BranchProbe"}
	if got := regvm.Superinstructions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Superinstructions() = %v, want %v", got, want)
	}
	cfg := instrument.Config{K: 2, Loops: true, Interproc: true}
	_, _, code, _ := compileCorpus(t, 4, cfg)
	f := code.Fusion
	if f.StepMove+f.StepBin+f.StepJump+f.StepBranch == 0 {
		t.Fatalf("no step fusion on a corpus program: %+v", f)
	}
	if f.Probe+f.BranchProbe == 0 {
		t.Fatalf("no record-driven probe fusion on a corpus program: %+v", f)
	}
	// Interprocedural regions resolve at path completion and put no work
	// on edges, so edges outside loops stay static charges with them on.
	if f.Charge+f.ChargeJump == 0 {
		t.Fatalf("no charge fusion with interprocedural regions on: %+v", f)
	}
}

// wideSource is a program whose callee has far more Ball-Larus paths than a
// dense route table holds, both below its entry and below its call sites,
// so its Type I and Type II regions resolve by walking the completed path.
func wideSource() string {
	var b strings.Builder
	b.WriteString("func leaf(v) { if (v > 3) { return v - 1; } return v + 1; }\n")
	b.WriteString("func wide(n) {\n\tvar x = leaf(n);\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&b, "\tif (rand(2) == 0) { x = x + %d; } else { x = x - 1; }\n", i+1)
		if i == 2 {
			b.WriteString("\tx = leaf(x);\n")
		}
	}
	b.WriteString("\treturn x;\n}\n")
	b.WriteString("func main() { var i = 0; while (i < 300) { print(wide(i)); i = i + 1; } }\n")
	return b.String()
}

// TestWalkedRouteParity checks the walk that resolves regions above the
// dense route-table bound against the tree engine, at every degree.
func TestWalkedRouteParity(t *testing.T) {
	src := wideSource()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	wide := info.Funcs[prog.FuncIndex("wide")]
	// 1024 is the dense bound (routeTableLimit).
	if n := wide.DAG.NumPaths[wide.CallSites[1].Block]; n <= 1024 {
		t.Fatalf("second call site has %d paths below it; want more than the dense route-table bound", n)
	}
	for k := 0; k <= info.MaxDegree(); k++ {
		cfg := instrument.Config{K: k, Loops: true, Interproc: true}
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			assertParity(t, src, 7, cfg)
		})
	}
}

// loopCasesSource exercises every way a loop window can end: an inner
// loop's backedge (the outer window breaks), a break (truncated), a return
// from inside the loop (the path leaves the loop and ends at the exit),
// calls inside the body, and the loop's own backedge.
const loopCasesSource = `
func leaf(v) { if (v > 2) { return v - 1; } return v + 1; }
func find(n) {
	var i = 0;
	while (i < 12) {
		var j = 0;
		while (j < 3) { if (rand(3) == 0) { j = j + 2; } else { j = j + 1; } }
		if (i == n) { return leaf(i); }
		if (rand(5) == 0) { break; }
		i = i + leaf(1) - 1;
	}
	return 0;
}
func main() {
	var s = 0;
	var t = 0;
	while (t < 40) { s = s + find(rand(14)); t = t + 1; }
	print(s);
}
`

// TestLoopWindowCaseParity runs every loop-window case on both engines at
// every degree.
func TestLoopWindowCaseParity(t *testing.T) {
	prog, err := lang.Compile(loopCasesSource)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= info.MaxDegree(); k++ {
		cfg := instrument.Config{K: k, Loops: true, Interproc: true}
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			assertParity(t, loopCasesSource, 3, cfg)
		})
	}
}

// wideLoopSource is a program whose loop body has far more Ball-Larus paths
// below its header than a dense window table holds, so its window resolves
// by walking the completed path.
func wideLoopSource() string {
	var b strings.Builder
	b.WriteString("func main() {\n\tvar i = 0;\n\tvar x = 0;\n\twhile (i < 300) {\n")
	for i := 0; i < 11; i++ {
		fmt.Fprintf(&b, "\t\tif (rand(2) == 0) { x = x + %d; } else { x = x - 1; }\n", i+1)
	}
	b.WriteString("\t\tif (x > 1000) { break; }\n\t\ti = i + 1;\n\t}\n\tprint(x);\n}\n")
	return b.String()
}

// TestWalkedLoopParity checks the walk that resolves windows above the dense
// table bound against the tree engine, at every degree.
func TestWalkedLoopParity(t *testing.T) {
	src := wideLoopSource()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	main := info.Funcs[prog.FuncIndex("main")]
	// 1024 is the dense bound (routeTableLimit).
	if n := main.DAG.NumPaths[main.Loops[0].Loop.Head]; n <= 1024 {
		t.Fatalf("loop header has %d paths below it; want more than the dense table bound", n)
	}
	for k := 0; k <= info.MaxDegree(); k++ {
		cfg := instrument.Config{K: k, Loops: true, Interproc: true}
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			assertParity(t, src, 7, cfg)
		})
	}
}
