package regvm

import (
	"fmt"
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/instrument"
	"pathprof/internal/olpath"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
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
