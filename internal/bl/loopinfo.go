package bl

import (
	"fmt"

	"pathprof/internal/cfg"
)

// LoopPaths enumerates the "loop paths" of one natural loop: the block
// sequences that a single complete iteration can follow, from the loop
// header to the source of one of the loop's backedges. These are the
// sequences the paper numbers 1..k in depth-first order and pairs into the
// k^2 interesting paths (i ! j).
type LoopPaths struct {
	Loop *cfg.Loop
	// Seqs holds the block sequences in depth-first enumeration order.
	Seqs [][]cfg.NodeID
	// index maps SeqKey(seq) to its position in Seqs.
	index map[string]int
}

// Index returns the index of the sequence with the given key, or -1.
func (lp *LoopPaths) Index(key string) int {
	if i, ok := lp.index[key]; ok {
		return i
	}
	return -1
}

// seqIndex returns the index of block sequence seq, or -1, without
// building its key string.
func (lp *LoopPaths) seqIndex(seq []cfg.NodeID) int {
	var buf [64]byte
	if i, ok := lp.index[string(appendSeqKey(buf[:0], seq))]; ok {
		return i
	}
	return -1
}

// Count returns the number of loop paths.
func (lp *LoopPaths) Count() int { return len(lp.Seqs) }

// LoopSeqs enumerates the loop paths of l by depth-first search over the
// loop body with all backedges (including inner loops') removed. A sequence
// is recorded each time the walk stands on a source of one of l's backedges;
// the walk also continues past it, since a body may route through one
// backedge source on the way to another. Enumeration fails if more than
// limit sequences exist.
func (d *DAG) LoopSeqs(l *cfg.Loop, limit int) (*LoopPaths, error) {
	lp := &LoopPaths{Loop: l, index: map[string]int{}}
	isTail := map[cfg.NodeID]bool{}
	for _, be := range l.Backedges {
		isTail[be.From] = true
	}

	var seq []cfg.NodeID
	var walk func(v cfg.NodeID) error
	walk = func(v cfg.NodeID) error {
		seq = append(seq, v)
		defer func() { seq = seq[:len(seq)-1] }()
		if isTail[v] {
			if len(lp.Seqs) >= limit {
				return fmt.Errorf("bl: loop at %s has more than %d loop paths", d.G.Label(l.Head), limit)
			}
			s := append([]cfg.NodeID(nil), seq...)
			lp.index[SeqKey(s)] = len(lp.Seqs)
			lp.Seqs = append(lp.Seqs, s)
		}
		for _, se := range d.succ[v] {
			if !l.Contains(se.to) || se.back {
				continue
			}
			if err := walk(se.to); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(l.Head); err != nil {
		return nil, err
	}
	return lp, nil
}

// Occurrence describes how one static BL path interacts with one loop: the
// (at most one) iteration sequence of the loop it contains.
type Occurrence struct {
	// SeqIndex is the index of the full iteration sequence in LoopPaths,
	// or -1 if the occurrence is partial (the path ends at an inner
	// backedge, or leaves the loop body from a non-tail block).
	SeqIndex int
	// Full reports whether a complete header→tail sequence occurred.
	Full bool
	// First reports that the occurrence begins a trip into the loop (the
	// path did not start at this loop's header after a backedge), so it
	// cannot be the second component of an interesting pair.
	First bool
	// Last reports that the occurrence is followed by leaving the loop
	// body rather than by this loop's backedge, so it cannot be the
	// first component of an interesting pair. (Partial occurrences are
	// never pair components at all.)
	Last bool
	// EndsAtBackedge reports that the path terminates by taking one of
	// this loop's backedges right after the occurrence.
	EndsAtBackedge bool
	// Start and End delimit the occurrence within the path's Blocks
	// (inclusive), whether full or partial.
	Start, End int
}

// BlocksOf returns the occurrence's block slice within p.
func (o Occurrence) BlocksOf(p *Path) []cfg.NodeID {
	return p.Blocks[o.Start : o.End+1]
}

// AnalyzeLoop computes the occurrence of loop lp.Loop within path p.
// The boolean result reports whether the path contains the loop header at
// all (if false the Occurrence is meaningless).
func AnalyzeLoop(p *Path, lp *LoopPaths, d *DAG) (Occurrence, bool) {
	l := lp.Loop
	idx := -1
	for i, b := range p.Blocks {
		if b == l.Head {
			idx = i
			break
		}
	}
	if idx == -1 {
		return Occurrence{}, false
	}

	occ := Occurrence{SeqIndex: -1}
	if h, ok := p.StartHeader(); !ok || h != l.Head || idx != 0 {
		occ.First = true
	}

	isTail := func(v cfg.NodeID) bool {
		for _, be := range l.Backedges {
			if be.From == v {
				return true
			}
		}
		return false
	}

	occ.Start = idx
	j := idx
	for {
		occ.End = j
		if j == len(p.Blocks)-1 {
			// The path ends at Blocks[j]. It either took a backedge
			// (exit dummy) or ran to the procedure exit (only
			// possible if the exit is inside the body, which
			// Validate forbids — the exit has no successors, so a
			// body block it is not unless the body leaks; treat as
			// partial defensively).
			if be, ok := p.EndBackedge(); ok {
				if l.IsBackedge(be) {
					occ.Full = true
					occ.EndsAtBackedge = true
					occ.SeqIndex = lp.seqIndex(p.Blocks[idx : j+1])
				}
				// Else: ended at an inner (or other) loop's
				// backedge mid-body: partial.
			}
			return occ, true
		}
		if !l.Contains(p.Blocks[j+1]) {
			// Leaving the body from Blocks[j].
			if isTail(p.Blocks[j]) {
				occ.Full = true
				occ.Last = true
				occ.SeqIndex = lp.seqIndex(p.Blocks[idx : j+1])
			}
			return occ, true
		}
		j++
	}
}

// LoopFlow aggregates a Ball-Larus profile (path id → frequency) into the
// per-loop quantities the paper's estimation equations consume.
type LoopFlow struct {
	Paths *LoopPaths
	// F[i] is the total execution frequency of loop path i.
	F []uint64
	// E[i] is the number of times loop path i executed as the first
	// iteration of a trip into the loop (paper's E_q).
	E []uint64
	// X[i] is the number of times loop path i executed as the last
	// complete iteration of a trip (paper's X_p).
	X []uint64
	// B is the total frequency of the loop's backedges.
	B uint64
}

// ComputeLoopFlow derives LoopFlow for one loop from a BL path profile.
// pathOf resolves path ids to reconstructed paths (allowing the caller to
// cache reconstructions).
func ComputeLoopFlow(d *DAG, lp *LoopPaths, profile map[int64]uint64) (*LoopFlow, error) {
	lf := &LoopFlow{
		Paths: lp,
		F:     make([]uint64, lp.Count()),
		E:     make([]uint64, lp.Count()),
		X:     make([]uint64, lp.Count()),
	}
	for id, freq := range profile {
		if freq == 0 {
			continue
		}
		p, err := d.PathForID(id)
		if err != nil {
			return nil, err
		}
		if be, ok := p.EndBackedge(); ok && lp.Loop.IsBackedge(be) {
			lf.B += freq
		}
		occ, ok := AnalyzeLoop(p, lp, d)
		if !ok || !occ.Full || occ.SeqIndex < 0 {
			continue
		}
		lf.F[occ.SeqIndex] += freq
		if occ.First {
			lf.E[occ.SeqIndex] += freq
		}
		if occ.Last {
			lf.X[occ.SeqIndex] += freq
		}
	}
	return lf, nil
}
