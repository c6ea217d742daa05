package regvm

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/instrument"
	"pathprof/internal/lang"
	"pathprof/internal/olpath"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
	"pathprof/internal/workload"
)

// stepPath walks x's tracker over edges the way the tree engine does
// (instrument.Runtime.extStep on every real edge, backedges and dummies
// skipped) and returns the route and the probe ops the steps charged.
func stepPath(x *olpath.Ext, edges []*bl.DAGEdge) route {
	tr := olpath.NewTracker(x)
	tr.Activate()
	var ops int64
	for _, de := range edges {
		if de.Kind != bl.Real {
			continue
		}
		e := cfg.Edge{From: de.From, To: de.To}
		switch x.Classify(e) {
		case olpath.DI:
			ops += overhead.RegOp
		case olpath.PI:
			ops += overhead.GuardOp
			if !tr.Frozen {
				ops += overhead.RegOp
			}
		}
		if x.D.PredicateLike(e.To) {
			ops += overhead.RegOp
		}
		tr.Step(e)
	}
	return route{ext: tr.Finalize(), ops: ops}
}

// TestRouteTablesMatchPerEdgeRule checks every route table of every bundled
// program at every degree against the tree engine's per-edge rule: for each
// function and each BL path id, the entry table at the id equals stepping
// the callee-entry tracker over a path that starts at the entry, and for
// each selected call site on the path the site's table at the id less the
// register value at the site equals stepping the suffix tracker over the
// edges after the site block. The greedy walk used above routeTableLimit
// must agree with the table on every key as well.
func TestRouteTablesMatchPerEdgeRule(t *testing.T) {
	for _, wb := range workload.All() {
		prog, err := wb.Compile()
		if err != nil {
			t.Fatal(err)
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for k := -1; k <= info.MaxDegree(); k++ {
			plan, err := instrument.BuildPlan(info, instrument.Config{K: k, Loops: true, Interproc: true})
			if err != nil {
				t.Fatal(err)
			}
			code, err := Compile(prog, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, fi := range info.Funcs {
				name := fmt.Sprintf("%s/k%d/%s", wb.Name, k, fi.Fn.Name)
				cf := code.funcs[fi.Index]
				if k < 0 {
					if cf.entry != nil || cf.sites != nil {
						t.Fatalf("%s: route tables without interprocedural regions", name)
					}
					continue
				}
				checkFuncRoutes(t, name, fi, cf, plan)
			}
		}
	}
}

func checkFuncRoutes(t *testing.T, name string, fi *profile.FuncInfo, cf *compiledFunc, plan *instrument.Plan) {
	t.Helper()
	d := fi.DAG
	if d.Total() > routeTableLimit {
		t.Fatalf("%s: %d BL paths, above the dense bound %d", name, d.Total(), routeTableLimit)
	}
	tables := append([]*routeTable{cf.entry}, cf.sites...)
	for _, rt := range tables {
		if rt == nil || len(rt.tab) != int(d.NumPaths[rt.root]) {
			t.Fatalf("%s: missing or mis-sized route table", name)
		}
	}
	entryExt, suffixExts := plan.EntryExtAt(fi.Index), plan.SuffixExtsAt(fi.Index)
	// Walking twins of the tables: what a region above the bound does.
	entryWalk := newRouteTable(entryExt, 0)
	siteWalks := make([]*routeTable, len(suffixExts))
	for i, x := range suffixExts {
		siteWalks[i] = newRouteTable(x, 0)
	}
	for id := int64(0); id < d.Total(); id++ {
		p, err := d.PathForID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, afterBack := p.StartHeader(); !afterBack {
			want := stepPath(entryExt, p.Edges)
			if got := cf.entry.at(id); got != want {
				t.Fatalf("%s: entry route of path %d = %+v, per-edge rule %+v", name, id, got, want)
			}
			if got := entryWalk.at(id); got != want {
				t.Fatalf("%s: entry walk of path %d = %+v, per-edge rule %+v", name, id, got, want)
			}
		}
		for _, cs := range fi.CallSites {
			at, ok := p.AccumAt(cs.Block)
			if !ok {
				continue
			}
			i := 0
			for i < len(p.Edges) && p.Edges[i].From != cs.Block {
				i++
			}
			want := stepPath(suffixExts[cs.Index], p.Edges[i:])
			rt := cf.sites[cs.Index]
			if got := rt.at(id - at); got != want {
				t.Fatalf("%s: site %d route of path %d = %+v, per-edge rule %+v", name, cs.Index, id, got, want)
			}
			if got := siteWalks[cs.Index].at(id - at); got != want {
				t.Fatalf("%s: site %d walk of path %d = %+v, per-edge rule %+v", name, cs.Index, id, got, want)
			}
		}
	}
}

// loopCase names how a window's first path ends, for coverage.
type loopCase int

const (
	caseOwnBackedge loopCase = iota // the next path ends at the same backedge: it becomes the next base
	caseBroken                      // the next path ends at an inner loop's backedge
	caseTruncated                   // the loop is exited mid-path, not from a tail
	caseCall                        // a call inside the body before the window ends
	caseReturn                      // the loop is left and the path ends at the procedure exit
	numLoopCases
)

// stepLoopPath walks loop li's tracker over a path that starts at the
// header right after one of its backedges (the entry dummy first), the way
// the tree engine's loopEdge does, up to the edge that ends the window: the
// route, the live ops its steps charged (the static ones stay on the edges)
// and whether the crossing the tree engine counts for it is full, plus the
// cases the path exercises.
func stepLoopPath(t *testing.T, fi *profile.FuncInfo, li *profile.LoopInfo, x *olpath.Ext, edges []*bl.DAGEdge) (route, []loopCase) {
	t.Helper()
	tr := olpath.NewTracker(x)
	tr.Activate()
	l := li.Loop
	var ops int64
	var cases []loopCase
	closed := func(full bool) route {
		return route{ext: tr.Finalize(), ops: ops, full: full}
	}
	for i, de := range edges {
		if de.Kind == bl.EntryDummy {
			continue
		}
		if cs := fi.CallSiteOfBlock[de.From]; cs != nil && i > 0 {
			cases = append(cases, caseCall)
		}
		if de.Kind == bl.ExitDummy {
			switch be := de.Backedge; {
			case l.IsBackedge(be):
				return closed(true), append(cases, caseOwnBackedge)
			case l.Contains(be.To):
				// The tree engine breaks the window here and counts it,
				// never full, when execution leaves the loop.
				tr.MarkBroken()
				return closed(false), append(cases, caseBroken)
			default:
				return closed(isTailOf(li, be.From)), append(cases, caseTruncated)
			}
		}
		e := cfg.Edge{From: de.From, To: de.To}
		if !l.Contains(e.To) {
			if last := edges[len(edges)-1]; last.Kind == bl.Real {
				cases = append(cases, caseReturn)
			}
			if !isTailOf(li, e.From) {
				cases = append(cases, caseTruncated)
			}
			return closed(isTailOf(li, e.From)), cases
		}
		if x.Classify(e) == olpath.PI && !tr.Frozen {
			ops += overhead.RegOp
		}
		tr.Step(e)
	}
	t.Fatalf("window of loop %d never ended", li.Index)
	return route{}, nil
}

// loopTestPrograms returns the bundled programs and the distinct programs
// of the oracle's checked-in fuzz corpus.
func loopTestPrograms(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	for _, wb := range workload.All() {
		srcs[wb.Name] = wb.Source
	}
	files, err := filepath.Glob(filepath.Join("..", "oracle", "testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var gen int64
		if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\nint64(%d)\n", &gen); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		srcs[fmt.Sprintf("corpus-gen%d", gen)] = randprog.SeedSource(gen)
	}
	if len(srcs) <= len(workload.All()) {
		t.Fatal("no fuzz corpus programs found")
	}
	return srcs
}

// TestLoopTablesMatchPerEdgeRule is TestRouteTablesMatchPerEdgeRule for
// loop windows: on every selected loop of the bundled programs and the fuzz
// corpus, at every degree, the window table at each key below the header —
// and the greedy walk used above routeTableLimit — equals stepping an
// olpath.Tracker by the tree engine's per-edge loop rule over PathForID's
// edges of the path with that key. The programs must exercise every way a
// window's first path can end.
func TestLoopTablesMatchPerEdgeRule(t *testing.T) {
	var seen [numLoopCases]int
	for name, src := range loopTestPrograms(t) {
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := profile.Analyze(prog, profile.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= info.MaxDegree(); k++ {
			plan, err := instrument.BuildPlan(info, instrument.Config{K: k, Loops: true, Interproc: true})
			if err != nil {
				t.Fatal(err)
			}
			code, err := Compile(prog, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, fi := range info.Funcs {
				cf := code.funcs[fi.Index]
				for i, li := range fi.Loops {
					x := plan.LoopExtsAt(fi.Index)[i]
					lt, walked := cf.windows[i], newLoopTable(li, x, 0)
					d := fi.DAG
					n := d.NumPaths[li.Loop.Head]
					if lt == nil || int64(len(lt.tab)) != n || walked.tab != nil {
						t.Fatalf("%s/k%d/%s: loop %d: missing or mis-sized window table", name, k, fi.Fn.Name, i)
					}
					for key := int64(0); key < n; key++ {
						p, err := d.PathForID(lt.entry + key)
						if err != nil {
							t.Fatal(err)
						}
						if h, afterBack := p.StartHeader(); !afterBack || h != li.Loop.Head {
							t.Fatalf("%s: key %d of loop %d does not start at its header", name, key, i)
						}
						want, cases := stepLoopPath(t, fi, li, x, p.Edges)
						for _, c := range cases {
							seen[c]++
						}
						if got := lt.at(key); got != want {
							t.Fatalf("%s/k%d/%s: loop %d window at key %d = %+v, per-edge rule %+v", name, k, fi.Fn.Name, i, key, got, want)
						}
						if got := walked.at(key); got != want {
							t.Fatalf("%s/k%d/%s: loop %d walk at key %d = %+v, per-edge rule %+v", name, k, fi.Fn.Name, i, key, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("first paths by case (own backedge, broken, truncated, call, return): %v", seen)
	for c, n := range seen {
		if n == 0 {
			t.Errorf("no window exercised case %d", c)
		}
	}
}
