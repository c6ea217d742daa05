// Package bl implements Ball-Larus path numbering and profiling — the
// baseline substrate of the paper ("Efficient Path Profiling", MICRO '96)
// that overlapping-path profiling extends.
//
// Given a reducible CFG, the Ball-Larus transformation removes every loop
// backedge t->h and adds two dummy edges, En->h and t->Ex. Every path of the
// resulting DAG from En to Ex is a "BL path"; edges are assigned integer
// values such that the sum of the values along each path is a unique id in
// [0, NumPaths). Because a dummy edge may run parallel to a real edge
// (e.g. when En->h already exists), the DAG represents edges as explicit
// objects rather than reusing cfg.Graph adjacency.
package bl

import (
	"fmt"
	"sort"

	"pathprof/internal/cfg"
)

// EdgeKind distinguishes real CFG edges from the two kinds of dummy edge
// introduced by the Ball-Larus transformation.
type EdgeKind int

const (
	// Real is an original CFG edge.
	Real EdgeKind = iota
	// EntryDummy is a dummy edge En->h standing for "a path that begins
	// at loop header h, immediately after one of h's backedges".
	EntryDummy
	// ExitDummy is a dummy edge t->Ex standing for "a path that ends at
	// block t by taking the backedge t->h".
	ExitDummy
)

func (k EdgeKind) String() string {
	switch k {
	case Real:
		return "real"
	case EntryDummy:
		return "entry-dummy"
	case ExitDummy:
		return "exit-dummy"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// DAGEdge is one edge of the Ball-Larus DAG.
type DAGEdge struct {
	// Index is the edge's position in DAG.Edges.
	Index int
	// From and To are the endpoints in the underlying graph's id space.
	From, To cfg.NodeID
	// Kind says whether this is a real or dummy edge.
	Kind EdgeKind
	// Backedge is, for an ExitDummy, the backedge t->h this edge stands
	// for; for an EntryDummy, Backedge.To is the header h (Backedge.From
	// is cfg.None since several backedges may share the header). For
	// real edges it is the zero Edge.
	Backedge cfg.Edge
	// Val is the Ball-Larus increment assigned to this edge.
	Val int64
}

func (e *DAGEdge) String() string {
	return fmt.Sprintf("%d->%d(%s,+%d)", e.From, e.To, e.Kind, e.Val)
}

// DAG is the Ball-Larus path DAG of one procedure.
type DAG struct {
	// G is the original graph.
	G *cfg.Graph
	// Loops is the loop forest of G.
	Loops *cfg.LoopForest
	// Edges lists every DAG edge.
	Edges []*DAGEdge
	// Out holds each node's outgoing DAG edges, in numbering order: real
	// (non-backedge) successors first, in CFG successor order, then
	// dummy edges.
	Out [][]*DAGEdge
	// In holds incoming DAG edges per node.
	In [][]*DAGEdge
	// NumPaths[v] is the number of DAG paths from v to Ex.
	NumPaths []int64

	// succ holds, per block, its CFG successors in CFG successor order,
	// each resolved to the DAG edges that stand for it.
	succ [][]succEdge
	// entryDummy holds, per block, the En->h dummy of the loop headed by
	// it (nil for blocks that head no loop).
	entryDummy []*DAGEdge
}

// succEdge is one CFG edge v->to as the Ball-Larus DAG sees it, keyed by
// its source block so a walker step indexes an array instead of hashing
// an edge.
type succEdge struct {
	to cfg.NodeID
	// back reports that v->to is a loop backedge.
	back bool
	// edge is the real DAG edge, or for a backedge its t->Ex exit dummy.
	edge *DAGEdge
	// val is edge.Val; restart is, for a backedge, the Val of its
	// header's En->h entry dummy (the register value a path starting at
	// the header begins with).
	val, restart int64
}

// MaxPaths bounds the number of BL paths a single procedure may have before
// Build refuses to number it. The paper notes functions like the one in
// 099.go with 283063 loop paths; we allow well past that while still
// rejecting combinatorial explosions that would make enumeration-based
// estimation meaningless.
const MaxPaths int64 = 1 << 40

// Build computes the Ball-Larus DAG for g. It returns an error if g fails
// validation, has irreducible control flow, or has more than MaxPaths paths.
func Build(g *cfg.Graph) (*DAG, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	loops, err := cfg.FindLoops(g)
	if err != nil {
		return nil, err
	}

	d := &DAG{
		G:          g,
		Loops:      loops,
		Out:        make([][]*DAGEdge, g.Len()),
		In:         make([][]*DAGEdge, g.Len()),
		NumPaths:   make([]int64, g.Len()),
		succ:       make([][]succEdge, g.Len()),
		entryDummy: make([]*DAGEdge, g.Len()),
	}

	add := func(e *DAGEdge) *DAGEdge {
		e.Index = len(d.Edges)
		d.Edges = append(d.Edges, e)
		d.Out[e.From] = append(d.Out[e.From], e)
		d.In[e.To] = append(d.In[e.To], e)
		return e
	}

	// Real edges, in deterministic node/successor order. Every CFG edge
	// gets its successor-table slot; backedges get their DAG edge with the
	// exit dummies below, and their values once numbering is done.
	for v := cfg.NodeID(0); int(v) < g.Len(); v++ {
		for _, s := range g.Succs(v) {
			l := loops.ByHead(s)
			se := succEdge{to: s, back: l != nil && l.IsBackedge(cfg.Edge{From: v, To: s})}
			if !se.back {
				se.edge = add(&DAGEdge{From: v, To: s, Kind: Real})
			}
			d.succ[v] = append(d.succ[v], se)
		}
	}
	// Entry dummies: one per loop header, sorted by header id.
	heads := make([]cfg.NodeID, 0, len(loops.Loops))
	for _, l := range loops.Loops {
		heads = append(heads, l.Head)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	for _, h := range heads {
		d.entryDummy[h] = add(&DAGEdge{
			From: g.Entry(), To: h, Kind: EntryDummy,
			Backedge: cfg.Edge{From: cfg.None, To: h},
		})
	}
	// Exit dummies: one per backedge, in loop/backedge order.
	for _, l := range loops.Loops {
		for _, be := range l.Backedges {
			d.lookup(be).edge = add(&DAGEdge{
				From: be.From, To: g.Exit(), Kind: ExitDummy,
				Backedge: be,
			})
		}
	}

	if err := d.number(); err != nil {
		return nil, err
	}
	for _, ss := range d.succ {
		for i := range ss {
			ss[i].val = ss[i].edge.Val
			if ss[i].back {
				ss[i].restart = d.entryDummy[ss[i].to].Val
			}
		}
	}
	return d, nil
}

// number computes NumPaths per node and assigns edge values, in reverse
// topological order of the DAG.
func (d *DAG) number() error {
	order, err := d.topo()
	if err != nil {
		return err
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == d.G.Exit() {
			d.NumPaths[v] = 1
			continue
		}
		var running int64
		for _, e := range d.Out[v] {
			e.Val = running
			running += d.NumPaths[e.To]
			if running > MaxPaths {
				return fmt.Errorf("bl: %s has more than %d paths", d.G.Name, MaxPaths)
			}
		}
		d.NumPaths[v] = running
	}
	return nil
}

// topo returns a topological ordering of the DAG's nodes, or an error if a
// cycle survived backedge removal (which would indicate irreducibility that
// FindLoops should already have rejected; kept as a defensive check).
func (d *DAG) topo() ([]cfg.NodeID, error) {
	n := d.G.Len()
	indeg := make([]int, n)
	for _, e := range d.Edges {
		indeg[e.To]++
	}
	var queue []cfg.NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, cfg.NodeID(v))
		}
	}
	var order []cfg.NodeID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, e := range d.Out[v] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("bl: cycle survived backedge removal in %s", d.G.Name)
	}
	return order, nil
}

// Total returns the number of BL paths of the procedure.
func (d *DAG) Total() int64 { return d.NumPaths[d.G.Entry()] }

// lookup returns the successor-table entry of CFG edge e, or nil if e is
// not an edge of the procedure.
func (d *DAG) lookup(e cfg.Edge) *succEdge {
	if e.From < 0 || int(e.From) >= len(d.succ) {
		return nil
	}
	ss := d.succ[e.From]
	for i := range ss {
		if ss[i].to == e.To {
			return &ss[i]
		}
	}
	return nil
}

// EntryDummy returns the En->h dummy edge for loop header h, or nil.
func (d *DAG) EntryDummy(h cfg.NodeID) *DAGEdge {
	if h < 0 || int(h) >= len(d.entryDummy) {
		return nil
	}
	return d.entryDummy[h]
}

// ExitDummy returns the t->Ex dummy edge for backedge be, or nil.
func (d *DAG) ExitDummy(be cfg.Edge) *DAGEdge {
	if se := d.lookup(be); se != nil && se.back {
		return se.edge
	}
	return nil
}

// RealEdge returns the DAG edge for real CFG edge e, or nil (nil in
// particular for backedges, which have no real DAG edge).
func (d *DAG) RealEdge(e cfg.Edge) *DAGEdge {
	if se := d.lookup(e); se != nil && !se.back {
		return se.edge
	}
	return nil
}

// IsBackedge reports whether e is a loop backedge of the procedure.
func (d *DAG) IsBackedge(e cfg.Edge) bool {
	se := d.lookup(e)
	return se != nil && se.back
}

// IsBackedgeSource reports whether some backedge leaves v — i.e. v is the
// "terminating block" of a loop iteration, which the overlapping-path
// machinery treats as a predicate block per the paper.
func (d *DAG) IsBackedgeSource(v cfg.NodeID) bool {
	if v < 0 || int(v) >= len(d.succ) {
		return false
	}
	for _, se := range d.succ[v] {
		if se.back {
			return true
		}
	}
	return false
}

// PredicateLike reports whether v counts as a predicate block for
// overlapping-path degree accounting: a real conditional (two or more
// successors), the procedure exit, or a backedge source. The paper treats
// the loop-terminating block and the procedure exit as predicates.
func (d *DAG) PredicateLike(v cfg.NodeID) bool {
	return v == d.G.Exit() || len(d.G.Succs(v)) >= 2 || d.IsBackedgeSource(v)
}

// Ways returns, for every node v, the number of DAG routes from the path
// start points to v — i.e. the number of distinct BL path prefixes ending at
// v. Counting includes entry-dummy starts. Saturates at MaxPaths.
func (d *DAG) Ways() []int64 {
	ways := make([]int64, d.G.Len())
	order, err := d.topo()
	if err != nil {
		// Build already verified acyclicity.
		panic(err)
	}
	ways[d.G.Entry()] = 1
	for _, v := range order {
		for _, e := range d.Out[v] {
			ways[e.To] += ways[v]
			if ways[e.To] > MaxPaths {
				ways[e.To] = MaxPaths
			}
		}
	}
	return ways
}
