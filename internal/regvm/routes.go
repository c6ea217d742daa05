package regvm

// Completion-time routes. A Type I (callee entry) or Type II (caller
// suffix) tracker walks only real edges and stops at the path's end, so its
// whole walk lies on the one Ball-Larus path in flight: the walk from the
// region root to the path's end is fixed by the path's edges below the root.
// In BL numbering those edges are fixed by the path's key below the root:
// the completed id minus the BL register value standing on the root (0 for
// the entry root), a number in [0, NumPaths[root]).
//
// A loop window is the same walk with an end inside the path. It opens at
// a backedge, so the path after it starts at the loop header, and it steps
// that path's edges until the first one that ends it: the loop's own
// backedge or an exit from one of its tails (a full crossing), another
// exit (truncated), or an inner loop's backedge. There the window breaks:
// it freezes, and the tree engine counts it, never full, when execution
// later leaves the loop; the count is the same whenever it is made, so a
// broken window is one more truncated crossing. So a window's route, the
// live ops its steps charge and whether it ends full are functions of the
// key below the header too.
//
// The compiler resolves every key once into a dense table, so the machine
// looks a region's route up at completion instead of stepping a tracker on
// every edge.

import (
	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/olpath"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
)

// routeTableLimit bounds the keys (BL paths below the root) a dense table
// holds: 1024 is seven times the largest per-function path count of the
// bundled programs (81) and of the generated corpus (138), and caps one
// table at 24 KiB. A region with more keys walks the completed path at
// completion time instead. The walk is exact but costs about what per-edge
// stepping did (EXPERIMENTS.md, "Dense tables against walking every
// region"), so it serves only regions too wide to tabulate: bl admits
// functions with up to 2^40 paths.
const routeTableLimit = 1 << 10

// Window ends: what a DAG edge does to a loop window still walking.
const (
	endNone uint8 = iota // a body edge: the window steps
	endFull              // the loop's own backedge, or an exit from one of its tails
	endCut               // any other exit or an inner loop's backedge: truncated
)

// extAct is one region's step on one DAG edge, or the end of a loop window
// there.
type extAct struct {
	// statOps are charged on every step; liveOps only while unfrozen.
	statOps int64
	liveOps int64
	val     int64
	hasVal  bool
	predTo  bool
	end     uint8
}

// stepActFor resolves x's step on real edge e. The static ops are the
// interprocedural regions' whole per-edge charge (DI/PI probes and ol++ at
// a predicate-like target); loop windows leave them on the edge.
func stepActFor(x *olpath.Ext, e *bl.DAGEdge) extAct {
	ce := cfg.Edge{From: e.From, To: e.To}
	var a extAct
	switch x.Classify(ce) {
	case olpath.DI:
		a.statOps = overhead.RegOp
	case olpath.PI:
		a.statOps = overhead.GuardOp
		a.liveOps = overhead.RegOp
	}
	a.val, a.hasVal = x.ValOK(ce)
	a.predTo = x.D.PredicateLike(e.To)
	if a.predTo {
		a.statOps += overhead.RegOp // ol++
	}
	return a
}

// route is one region's finished walk: the route encoding and the probe ops
// the walk charged, and for a loop window whether it ended full.
type route struct {
	ext  int64
	ops  int64
	full bool
}

// walk is a region tracker's state part way along a path.
type walk struct {
	route
	frozen bool
	preds  int
}

// step applies the tree engine's per-edge rule (instrument.Runtime's
// extStep and loopEdge): the edge's static ops always, its live op while
// unfrozen; the route grows until the (k+1)-th predicate or an edge without
// a value freezes the tracker.
func (w *walk) step(a *extAct, freeze int) {
	w.ops += a.statOps
	if w.frozen {
		return
	}
	w.ops += a.liveOps
	if !a.hasVal {
		w.frozen = true
		return
	}
	w.ext += a.val
	if a.predTo {
		w.preds++
		if w.preds >= freeze {
			w.frozen = true
		}
	}
}

// routeTable resolves one region's walk from a path key below its root. It
// is read-only after Compile and shared by every machine running the code.
type routeTable struct {
	d      *bl.DAG
	root   cfg.NodeID
	start  walk
	freeze int
	// tab is dense by key; nil when the root has more than routeTableLimit
	// keys, and then acts (each DAG edge's step or window end) drives the
	// walk instead.
	acts []extAct
	tab  []route

	// entry is, on a loop window's table, the header's entry-dummy value:
	// the key below the header is the completed id less entry.
	entry int64
}

// newRouteTable resolves interprocedural region x, densely when its root has
// at most limit keys (Compile passes routeTableLimit).
func newRouteTable(x *olpath.Ext, limit int64) *routeTable {
	t := newTable(x)
	for _, e := range t.d.Edges {
		if e.Kind == bl.Real {
			t.acts[e.Index] = stepActFor(x, e)
		}
	}
	return t.tabulate(limit)
}

// newLoopTable resolves the window of loop li opened at its header, whose
// extension region x is, densely when the header has at most limit keys.
// Only edges a window can take before its end get an act: body edges step
// (their static ops stay on the edge), exits and backedges end it.
func newLoopTable(li *profile.LoopInfo, x *olpath.Ext, limit int64) *routeTable {
	t := newTable(x)
	l := li.Loop
	t.entry = t.d.EntryDummy(l.Head).Val
	tail := func(v cfg.NodeID) uint8 {
		if isTailOf(li, v) {
			return endFull
		}
		return endCut
	}
	for _, e := range t.d.Edges {
		if !l.Contains(e.From) {
			continue
		}
		a := &t.acts[e.Index]
		switch {
		case e.Kind == bl.ExitDummy && e.Backedge.To == l.Head:
			a.end = endFull
		case e.Kind == bl.ExitDummy && l.Contains(e.Backedge.To):
			a.end = endCut
		case e.Kind == bl.ExitDummy || !l.Contains(e.To):
			a.end = tail(e.From)
		default:
			*a = stepActFor(x, e)
			a.statOps = 0
		}
	}
	return t.tabulate(limit)
}

func newTable(x *olpath.Ext) *routeTable {
	t := &routeTable{d: x.D, root: x.Root, freeze: x.K + 1, acts: make([]extAct, len(x.D.Edges))}
	t.start.preds = x.RootDepth()
	t.start.frozen = t.start.preds >= t.freeze
	return t
}

// tabulate fills the dense table when the root has at most limit keys,
// dropping the acts only the walk reads.
func (t *routeTable) tabulate(limit int64) *routeTable {
	if n := t.d.NumPaths[t.root]; n <= limit {
		t.tab = make([]route, n)
		t.fill(t.root, 0, t.start)
		t.acts = nil
	}
	return t
}

// fill walks every DAG path below v in one depth-first pass, carrying the
// tracker state and the key so far, and records each path's route at Ex, or
// at the edge that ends a loop window for every key through that edge.
// Entry dummies are skipped: they leave only the procedure entry and stand
// for paths that start at a loop header, which never hold a region's walk.
// Exit dummies end a region's path without a step, like the backedge they
// stand for.
func (t *routeTable) fill(v cfg.NodeID, key int64, w walk) {
	if v == t.d.G.Exit() {
		t.tab[key] = w.route
		return
	}
	for _, e := range t.d.Out[v] {
		if e.Kind == bl.EntryDummy {
			continue
		}
		a := &t.acts[e.Index]
		if a.end != endNone {
			r := w.ended(a)
			lo := key + e.Val
			for i := lo; i < lo+t.d.NumPaths[e.To]; i++ {
				t.tab[i] = r
			}
			continue
		}
		nw := w
		if e.Kind == bl.Real {
			nw.step(a, t.freeze)
		}
		t.fill(e.To, key+e.Val, nw)
	}
}

// ended is the route of a window that ends on an edge with act a.
func (w *walk) ended(a *extAct) route {
	r := w.route
	r.full = a.end == endFull
	return r
}

// at returns the region's route for the path with the given key below the
// root.
func (t *routeTable) at(key int64) route {
	if t.tab != nil {
		return t.tab[key]
	}
	return t.walkKey(key)
}

// walkKey reconstructs the path below the root greedily (at each node the
// out-edge with the largest value not above the remaining key, as
// bl.DAG.PathForID does) and steps the region over it up to its end,
// without allocating.
func (t *routeTable) walkKey(key int64) route {
	w := t.start
	exit := t.d.G.Exit()
	for v := t.root; v != exit; {
		out := t.d.Out[v]
		e := out[0]
		for _, o := range out[1:] {
			if o.Val > key {
				break
			}
			e = o
		}
		a := &t.acts[e.Index]
		if a.end != endNone {
			return w.ended(a)
		}
		if e.Kind == bl.Real {
			w.step(a, t.freeze)
		}
		key -= e.Val
		v = e.To
	}
	return w.route
}

func isTailOf(li *profile.LoopInfo, v cfg.NodeID) bool {
	for _, be := range li.Loop.Backedges {
		if be.From == v {
			return true
		}
	}
	return false
}
