package core

import (
	"fmt"
	"sort"

	"pathprof/internal/bl"
)

// This file turns solved estimates into the reports the paper's motivating
// applications consume: hot two-iteration loop pairs (unrolling / partial
// redundancy elimination across backedges) and hot call-crossing pairs
// (interprocedural branch elimination, inlining and specialization hints).

// LoopPair is one interesting loop path (i ! j) with its bounds.
type LoopPair struct {
	Func string
	// Head is the loop header label.
	Head string
	I, J int
	// ISeq and JSeq render the two iteration sequences.
	ISeq, JSeq string
	// Lower and Upper bound the pair's frequency.
	Lower, Upper int64
	// Repeating marks i == j: the same iteration path twice in a row —
	// the prime unrolling/PRE candidate of the paper's introduction.
	Repeating bool
}

// HotLoopPairs extracts the loop pairs whose lower bound is at least
// minLower, sorted by lower bound descending.
func (s *Session) HotLoopPairs(pe *ProgramEstimate, minLower int64) []LoopPair {
	var out []LoopPair
	for _, le := range pe.Loops {
		for v := 0; v < le.Res.Vars(); v++ {
			i, j, lo, hi := le.Res.Pair(v)
			if lo < minLower || lo == 0 {
				continue
			}
			out = append(out, LoopPair{
				Func: le.Func.Fn.Name,
				Head: le.Func.G.Label(le.Loop.Loop.Head),
				I:    int(i), J: int(j),
				ISeq:      bl.FormatSeq(le.Func.G, le.Loop.LP.Seqs[i]),
				JSeq:      bl.FormatSeq(le.Func.G, le.Loop.LP.Seqs[j]),
				Lower:     lo,
				Upper:     hi,
				Repeating: i == j,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Lower != out[b].Lower {
			return out[a].Lower > out[b].Lower
		}
		if out[a].Func != out[b].Func {
			return out[a].Func < out[b].Func
		}
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].J < out[b].J
	})
	return out
}

// CrossingPair is one interprocedural interesting path with its bounds.
type CrossingPair struct {
	// Kind is "I" (caller prefix into callee) or "II" (callee into
	// caller suffix).
	Kind   string
	Caller string
	Site   string
	Callee string
	// First and Second render the two path components.
	First, Second string
	Lower, Upper  int64
}

// HotCrossingPairs extracts Type I and Type II pairs with lower bound at
// least minLower, sorted by lower bound descending.
func (s *Session) HotCrossingPairs(pe *ProgramEstimate, minLower int64) ([]CrossingPair, error) {
	var out []CrossingPair
	for _, se := range pe.Sites {
		if se.TypeI != nil {
			pairs, err := s.typeIPairs(se, minLower)
			if err != nil {
				return nil, err
			}
			out = append(out, pairs...)
		}
		if se.TypeII != nil {
			pairs, err := s.typeIIPairs(se, minLower)
			if err != nil {
				return nil, err
			}
			out = append(out, pairs...)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Lower != out[b].Lower {
			return out[a].Lower > out[b].Lower
		}
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		return out[a].First+out[a].Second < out[b].First+out[b].Second
	})
	return out, nil
}

func (s *Session) typeIPairs(se SiteEstimate, minLower int64) ([]CrossingPair, error) {
	r := se.TypeI
	ps, err := se.Caller.Prefixes(se.Site)
	if err != nil {
		return nil, err
	}
	var out []CrossingPair
	for v := 0; v < r.Vars(); v++ {
		pi, qid, lo, hi := r.Pair(v)
		if lo < minLower || lo == 0 {
			continue
		}
		q, err := se.Callee.DAG.PathForID(qid)
		if err != nil {
			return nil, err
		}
		out = append(out, CrossingPair{
			Kind:   "I",
			Caller: se.Caller.Fn.Name,
			Site:   se.Caller.G.Label(se.Site.Block),
			Callee: se.Callee.Fn.Name,
			First:  bl.FormatSeq(se.Caller.G, ps.Items[pi].Blocks),
			Second: q.Format(se.Callee.G),
			Lower:  lo,
			Upper:  hi,
		})
	}
	return out, nil
}

func (s *Session) typeIIPairs(se SiteEstimate, minLower int64) ([]CrossingPair, error) {
	r := se.TypeII
	ss, err := se.Caller.Suffixes(se.Site)
	if err != nil {
		return nil, err
	}
	var out []CrossingPair
	for v := 0; v < r.Vars(); v++ {
		qid, si, lo, hi := r.Pair(v)
		if lo < minLower || lo == 0 {
			continue
		}
		q, err := se.Callee.DAG.PathForID(qid)
		if err != nil {
			return nil, err
		}
		out = append(out, CrossingPair{
			Kind:   "II",
			Caller: se.Caller.Fn.Name,
			Site:   se.Caller.G.Label(se.Site.Block),
			Callee: se.Callee.Fn.Name,
			First:  q.Format(se.Callee.G),
			Second: bl.FormatSeq(se.Caller.G, ss.Seqs[si]),
			Lower:  lo,
			Upper:  hi,
		})
	}
	return out, nil
}

// FormatLoopPairs renders loop pairs, flagging repeating ones.
func FormatLoopPairs(pairs []LoopPair) string {
	var b []byte
	for _, p := range pairs {
		tag := "    "
		if p.Repeating {
			tag = "[RR]" // repeating path: unroll / cross-iteration PRE candidate
		}
		b = append(b, fmt.Sprintf("%8d..%-8d %s %s loop@%s: %s ! %s\n",
			p.Lower, p.Upper, tag, p.Func, p.Head, p.ISeq, p.JSeq)...)
	}
	return string(b)
}

// FormatCrossingPairs renders interprocedural pairs.
func FormatCrossingPairs(pairs []CrossingPair) string {
	var b []byte
	for _, p := range pairs {
		b = append(b, fmt.Sprintf("%8d..%-8d type-%-2s %s@%s -> %s: %s ! %s\n",
			p.Lower, p.Upper, p.Kind, p.Caller, p.Site, p.Callee, p.First, p.Second)...)
	}
	return string(b)
}
