package bl

import (
	"fmt"
	"strconv"
	"strings"

	"pathprof/internal/cfg"
)

// Path is one Ball-Larus path, reconstructed from its id.
type Path struct {
	// ID is the Ball-Larus path id in [0, DAG.Total()).
	ID int64
	// Edges are the DAG edges along the path, from entry to exit.
	Edges []*DAGEdge
	// Blocks is the meaningful block sequence: the nodes along the path,
	// with the synthetic endpoint dropped when the path begins with an
	// entry dummy (the sequence starts at the loop header) or ends with
	// an exit dummy (the sequence ends at the backedge source).
	Blocks []cfg.NodeID
}

// StartHeader returns (h, true) if the path begins with the entry dummy of
// loop header h — i.e. it represents execution resuming at h right after a
// backedge.
func (p *Path) StartHeader() (cfg.NodeID, bool) {
	if len(p.Edges) > 0 && p.Edges[0].Kind == EntryDummy {
		return p.Edges[0].Backedge.To, true
	}
	return cfg.None, false
}

// EndBackedge returns (be, true) if the path ends by taking backedge be.
func (p *Path) EndBackedge() (cfg.Edge, bool) {
	if n := len(p.Edges); n > 0 && p.Edges[n-1].Kind == ExitDummy {
		return p.Edges[n-1].Backedge, true
	}
	return cfg.Edge{}, false
}

// Group classifies the path into the paper's four groups with respect to a
// single-loop procedure:
//
//	1 — starts at En, ends at Ex
//	2 — starts at En, ends at a backedge
//	3 — starts at a loop header, ends at a backedge
//	4 — starts at a loop header, ends at Ex
func (p *Path) Group() int {
	_, afterBack := p.StartHeader()
	_, atBack := p.EndBackedge()
	switch {
	case !afterBack && !atBack:
		return 1
	case !afterBack && atBack:
		return 2
	case afterBack && atBack:
		return 3
	default:
		return 4
	}
}

// Format renders the path as its block labels, with "!" marking a
// terminating backedge, mirroring the paper's notation.
func (p *Path) Format(g *cfg.Graph) string {
	var b strings.Builder
	for i, n := range p.Blocks {
		if i > 0 {
			b.WriteString("=>")
		}
		b.WriteString(g.Label(n))
	}
	if _, ok := p.EndBackedge(); ok {
		b.WriteString(" !")
	}
	return b.String()
}

// PathForID reconstructs the path with the given id by walking the DAG
// greedily: at each node, take the out-edge with the largest Val not
// exceeding the remaining id.
func (d *DAG) PathForID(id int64) (*Path, error) {
	if id < 0 || id >= d.Total() {
		return nil, fmt.Errorf("bl: path id %d out of range [0,%d)", id, d.Total())
	}
	p := &Path{ID: id}
	v := d.G.Entry()
	rem := id
	for v != d.G.Exit() {
		out := d.Out[v]
		if len(out) == 0 {
			return nil, fmt.Errorf("bl: stuck at node %s reconstructing id %d", d.G.Label(v), id)
		}
		chosen := out[0]
		for _, e := range out[1:] {
			if e.Val <= rem {
				chosen = e
			} else {
				break
			}
		}
		rem -= chosen.Val
		p.Edges = append(p.Edges, chosen)
		v = chosen.To
	}
	if rem != 0 {
		return nil, fmt.Errorf("bl: residue %d reconstructing id %d", rem, id)
	}
	p.Blocks = blocksOf(d, p.Edges)
	return p, nil
}

// blocksOf converts an edge sequence into the meaningful block sequence.
func blocksOf(d *DAG, edges []*DAGEdge) []cfg.NodeID {
	if len(edges) == 0 {
		// Single-block procedure: entry == exit.
		return []cfg.NodeID{d.G.Entry()}
	}
	var blocks []cfg.NodeID
	if edges[0].Kind != EntryDummy {
		blocks = append(blocks, edges[0].From)
	}
	for i, e := range edges {
		if e.Kind == ExitDummy {
			if i != len(edges)-1 {
				panic("bl: exit dummy not last edge")
			}
			break
		}
		blocks = append(blocks, e.To)
	}
	return blocks
}

// EnumeratePaths returns every BL path, ordered by id. It refuses to
// enumerate more than limit paths (pass d.Total() if you have already
// checked the size).
func (d *DAG) EnumeratePaths(limit int64) ([]*Path, error) {
	if d.Total() > limit {
		return nil, fmt.Errorf("bl: %d paths exceeds enumeration limit %d", d.Total(), limit)
	}
	paths := make([]*Path, 0, d.Total())
	var edges []*DAGEdge
	var walk func(v cfg.NodeID, id int64)
	walk = func(v cfg.NodeID, id int64) {
		if v == d.G.Exit() {
			p := &Path{ID: id, Edges: append([]*DAGEdge(nil), edges...)}
			p.Blocks = blocksOf(d, p.Edges)
			paths = append(paths, p)
			return
		}
		for _, e := range d.Out[v] {
			edges = append(edges, e)
			walk(e.To, id+e.Val)
			edges = edges[:len(edges)-1]
		}
	}
	walk(d.G.Entry(), 0)
	return paths, nil
}

// AccumAt returns the Ball-Larus partial sum of the path at block site —
// the value the `r` register holds when execution stands on site — and
// whether the path visits site at all. For a path that begins at a loop
// header the entry dummy's value is included, matching what the runtime's
// register holds after a backedge.
func (p *Path) AccumAt(site cfg.NodeID) (int64, bool) {
	if len(p.Edges) == 0 {
		if len(p.Blocks) == 1 && p.Blocks[0] == site {
			return 0, true
		}
		return 0, false
	}
	var a int64
	cur := p.Edges[0].From
	i := 0
	if p.Edges[0].Kind == EntryDummy {
		a = p.Edges[0].Val
		cur = p.Edges[0].To
		i = 1
	}
	if cur == site {
		return a, true
	}
	for ; i < len(p.Edges); i++ {
		e := p.Edges[i]
		if e.Kind == ExitDummy {
			break
		}
		a += e.Val
		cur = e.To
		if cur == site {
			return a, true
		}
	}
	return 0, false
}

// SeqKey builds a hashable key for a block sequence: the decimal block
// ids joined by commas ("0,12,7"; "" for an empty sequence).
func SeqKey(blocks []cfg.NodeID) string {
	var buf [64]byte
	return string(appendSeqKey(buf[:0], blocks))
}

// appendSeqKey appends SeqKey(blocks) to dst, so map lookups can key on a
// stack buffer without building a string.
func appendSeqKey(dst []byte, blocks []cfg.NodeID) []byte {
	for i, n := range blocks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(n), 10)
	}
	return dst
}

// FormatSeq renders a block sequence with labels.
func FormatSeq(g *cfg.Graph, blocks []cfg.NodeID) string {
	parts := make([]string, len(blocks))
	for i, n := range blocks {
		parts[i] = g.Label(n)
	}
	return strings.Join(parts, "=>")
}
