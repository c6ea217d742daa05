package cfg

import (
	"fmt"
	"sort"
)

// Loop describes one natural loop: a header, the backedges targeting it, and
// the set of body nodes.
type Loop struct {
	// Head is the loop header.
	Head NodeID
	// Backedges are all edges t->Head where Head dominates t. A loop with
	// several backedges (e.g. from `continue`) has them merged into one
	// Loop record, matching the natural-loop definition.
	Backedges []Edge
	// Body is the set of nodes in the loop, including Head and all
	// backedge sources, sorted by id.
	Body []NodeID

	// Parent is the innermost enclosing loop, or nil for top-level loops.
	Parent *Loop
	// Children are loops immediately nested inside this one.
	Children []*Loop

	// inBody is the dense body membership, indexed by node id.
	inBody []bool
}

// Contains reports whether v is in the loop body.
func (l *Loop) Contains(v NodeID) bool {
	return v >= 0 && int(v) < len(l.inBody) && l.inBody[v]
}

// ExitEdges returns the edges leaving the loop body, in deterministic order.
func (l *Loop) ExitEdges(g *Graph) []Edge {
	var out []Edge
	for _, v := range l.Body {
		for _, s := range g.Succs(v) {
			if !l.Contains(s) {
				out = append(out, Edge{v, s})
			}
		}
	}
	return out
}

// EntryEdges returns the edges entering the header from outside the loop.
func (l *Loop) EntryEdges(g *Graph) []Edge {
	var out []Edge
	for _, p := range g.Preds(l.Head) {
		if !l.Contains(p) {
			out = append(out, Edge{p, l.Head})
		}
	}
	return out
}

// IsBackedge reports whether e is one of this loop's backedges.
func (l *Loop) IsBackedge(e Edge) bool {
	for _, b := range l.Backedges {
		if b == e {
			return true
		}
	}
	return false
}

func (l *Loop) String() string {
	return fmt.Sprintf("loop(head=%d, backedges=%v, body=%v)", l.Head, l.Backedges, l.Body)
}

// LoopForest is the set of natural loops of a graph with their nesting
// structure.
type LoopForest struct {
	// Loops holds every loop, ordered by header id.
	Loops []*Loop
	// byHead maps header -> loop.
	byHead map[NodeID]*Loop
	// innermost maps node -> innermost loop containing it (nil if none).
	innermost map[NodeID]*Loop
}

// ByHead returns the loop with the given header, or nil.
func (f *LoopForest) ByHead(h NodeID) *Loop { return f.byHead[h] }

// Innermost returns the innermost loop containing v, or nil.
func (f *LoopForest) Innermost(v NodeID) *Loop { return f.innermost[v] }

// ErrIrreducible is returned by FindLoops when the graph has a retreating
// edge whose target does not dominate its source — i.e. the graph is not
// reducible. Ball-Larus numbering (and therefore everything in this
// repository) requires reducible control flow, as did the paper's Trimaran
// substrate.
type ErrIrreducible struct{ Edge Edge }

func (e *ErrIrreducible) Error() string {
	return fmt.Sprintf("cfg: irreducible control flow: retreating edge %v whose target does not dominate its source", e.Edge)
}

// FindLoops identifies all natural loops of g and their nesting. It returns
// an *ErrIrreducible error if any retreating edge is not a true backedge.
func FindLoops(g *Graph) (*LoopForest, error) {
	dom := ComputeDominators(g)
	f := &LoopForest{byHead: make(map[NodeID]*Loop), innermost: make(map[NodeID]*Loop)}

	for _, e := range RetreatingEdges(g) {
		if !dom.Dominates(e.To, e.From) {
			return nil, &ErrIrreducible{Edge: e}
		}
		l := f.byHead[e.To]
		if l == nil {
			l = &Loop{Head: e.To, inBody: make([]bool, g.Len())}
			l.inBody[e.To] = true
			f.byHead[e.To] = l
			f.Loops = append(f.Loops, l)
		}
		l.Backedges = append(l.Backedges, e)
		collectLoopBody(g, l, e.From)
	}

	sort.Slice(f.Loops, func(i, j int) bool { return f.Loops[i].Head < f.Loops[j].Head })
	for _, l := range f.Loops {
		for v, in := range l.inBody {
			if in {
				l.Body = append(l.Body, NodeID(v))
			}
		}
	}

	f.buildNesting()
	return f, nil
}

// collectLoopBody adds to l every node that can reach the backedge source
// tail without passing through the header (the standard natural-loop body
// computation: walk predecessors from tail until the header).
func collectLoopBody(g *Graph, l *Loop, tail NodeID) {
	if l.inBody[tail] {
		return
	}
	l.inBody[tail] = true
	stack := []NodeID{tail}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.Preds(v) {
			if !l.inBody[p] {
				l.inBody[p] = true
				stack = append(stack, p)
			}
		}
	}
}

// buildNesting links Parent/Children pointers and fills the innermost map.
// Loop A is nested in loop B iff A's header is in B's body and A != B; the
// parent is the smallest strictly-containing loop.
func (f *LoopForest) buildNesting() {
	for _, a := range f.Loops {
		var best *Loop
		for _, b := range f.Loops {
			if a == b || b.Head == a.Head || !b.inBody[a.Head] {
				continue
			}
			if best == nil || len(b.Body) < len(best.Body) {
				best = b
			}
		}
		a.Parent = best
		if best != nil {
			best.Children = append(best.Children, a)
		}
	}

	// innermost: for each node pick the smallest loop containing it.
	for _, l := range f.Loops {
		for _, v := range l.Body {
			cur := f.innermost[v]
			if cur == nil || len(l.Body) < len(cur.Body) {
				f.innermost[v] = l
			}
		}
	}
}
