package regvm

// Completion-time routes for the interprocedural regions. A Type I (callee
// entry) or Type II (caller suffix) tracker walks only real edges and stops
// at the path's end, so its whole walk lies on the one Ball-Larus path in
// flight: the walk from the region root to the path's end is fixed by the
// path's edges below the root. In BL numbering those edges are fixed by the
// path's key below the root: the completed id minus the BL register value
// standing on the root (0 for the entry root), a number in
// [0, NumPaths[root]). The compiler resolves every key once into a dense
// route table, so the machine looks the route and its probe-op charge up at
// completion instead of stepping a tracker on every edge.

import (
	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/olpath"
	"pathprof/internal/overhead"
)

// routeTableLimit bounds the keys (BL paths below the root) a region's dense
// table holds: 1024 is seven times the largest per-function path count of the
// bundled programs (81) and of the generated corpus (138), and caps one table
// at 16 KiB. A region with more keys keeps its per-edge actions instead and
// walks the completed path at completion time. The walk is exact but costs
// about what per-edge stepping did (EXPERIMENTS.md, "Dense tables against
// walking every region"), so it serves only regions too wide to tabulate:
// bl admits functions with up to 2^40 paths.
const routeTableLimit = 1 << 10

// extAct is one interprocedural region's step on one real edge.
type extAct struct {
	statOps int64
	liveOps int64
	hasVal  bool
	val     int64
	predTo  bool
}

func extActFor(x *olpath.Ext, e *bl.DAGEdge) extAct {
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
	return a
}

// route is one region's finished walk: the route encoding and the probe ops
// the walk charged.
type route struct {
	ext int64
	ops int64
}

// walk is a region tracker's state part way along a path.
type walk struct {
	route
	frozen bool
	preds  int
}

// step applies the tree engine's per-edge rule (instrument.Runtime's
// extStep): the edge's static ops always, its live op while unfrozen, ol++
// at a predicate-like target; the route grows until the (k+1)-th predicate
// or an edge without a value freezes the tracker.
func (w *walk) step(a *extAct, freeze int) {
	w.ops += a.statOps
	if !w.frozen {
		w.ops += a.liveOps
	}
	if a.predTo {
		w.ops += overhead.RegOp // ol++
	}
	if w.frozen {
		return
	}
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
	// keys, and then acts (per DAG edge index) drives the walk instead.
	tab  []route
	acts []extAct
}

// newRouteTable resolves region x, densely when its root has at most limit
// keys (Compile passes routeTableLimit).
func newRouteTable(x *olpath.Ext, limit int64) *routeTable {
	d := x.D
	t := &routeTable{d: d, root: x.Root, freeze: x.K + 1}
	t.start.preds = x.RootDepth()
	t.start.frozen = t.start.preds >= t.freeze
	acts := make([]extAct, len(d.Edges))
	for _, e := range d.Edges {
		if e.Kind == bl.Real {
			acts[e.Index] = extActFor(x, e)
		}
	}
	n := d.NumPaths[x.Root]
	if n > limit {
		t.acts = acts
		return t
	}
	t.tab = make([]route, n)
	t.fill(acts, x.Root, 0, t.start)
	return t
}

// fill walks every DAG path below v in one depth-first pass, carrying the
// tracker state and the key so far, and records each path's route at Ex.
// Entry dummies are skipped: they leave only the procedure entry and stand
// for paths that start at a loop header, which never hold a region's walk.
// Exit dummies end the path without a step, like the backedge they stand
// for.
func (t *routeTable) fill(acts []extAct, v cfg.NodeID, key int64, w walk) {
	if v == t.d.G.Exit() {
		t.tab[key] = w.route
		return
	}
	for _, e := range t.d.Out[v] {
		if e.Kind == bl.EntryDummy {
			continue
		}
		nw := w
		if e.Kind == bl.Real {
			nw.step(&acts[e.Index], t.freeze)
		}
		t.fill(acts, e.To, key+e.Val, nw)
	}
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
// bl.DAG.PathForID does) and steps the region over it, without allocating.
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
		if e.Kind == bl.Real {
			w.step(&t.acts[e.Index], t.freeze)
		}
		key -= e.Val
		v = e.To
	}
	return w.route
}
