package profile

import (
	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/olpath"
)

// This file holds the static caches the estimators read: per-degree cut
// classes of a structure's enumerated sequences, and per-function path
// counts. Each is built on first use, sized by the program alone (never by
// a profile), and safe for concurrent estimates on one Info; callers that
// never estimate never build them.

// CutClasses partitions a structure's static sequences — a loop's
// iteration sequences or a call site's suffixes — by their degree-d cut:
// two sequences share a class when their cuts (olpath.Ext.CutSeq) are the
// same block sequence. The estimators' OF sum groups are a row crossed
// with one class.
type CutClasses struct {
	// Of[j] is sequence j's class. Classes are numbered from 0 in the
	// order of their first sequence.
	Of []int32
	// Rep[c] is the first sequence of class c.
	Rep []int32

	// byRoute maps each class's cut, as a route of the degree-d extension
	// region, to the class. Routes encode block sequences one to one, so
	// this is the class lookup of an observed extension.
	byRoute map[int64]int32
}

// ByRoute returns the class whose cut is the degree-d extension route
// route, or -1 if no sequence cuts to it.
func (c *CutClasses) ByRoute(route int64) int32 {
	if cl, ok := c.byRoute[route]; ok {
		return cl
	}
	return -1
}

// newCutClasses classifies seqs, each rooted at x.Root, by their degree
// x.K cuts. Every cut of a root-anchored sequence walks only kept edges of
// x (each source lies within x.K predicates of the root), so it encodes.
func newCutClasses(x *olpath.Ext, seqs [][]cfg.NodeID) (*CutClasses, error) {
	cc := &CutClasses{Of: make([]int32, len(seqs)), byRoute: map[int64]int32{}}
	for j, s := range seqs {
		route, err := x.Encode(x.CutSeq(s))
		if err != nil {
			return nil, err
		}
		cl, ok := cc.byRoute[route]
		if !ok {
			cl = int32(len(cc.Rep))
			cc.byRoute[route] = cl
			cc.Rep = append(cc.Rep, int32(j))
		}
		cc.Of[j] = cl
	}
	return cc, nil
}

// CutClasses returns (and caches) the degree-d cut classes of the loop's
// iteration sequences (LP.Seqs). At most MaxDeg+1 are cached per loop.
func (li *LoopInfo) CutClasses(d int) (*CutClasses, error) {
	x, err := li.Ext(d)
	if err != nil {
		return nil, err
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	if cc, ok := li.classes[d]; ok {
		return cc, nil
	}
	cc, err := newCutClasses(x, li.LP.Seqs)
	if err != nil {
		return nil, err
	}
	if li.classes == nil {
		li.classes = map[int]*CutClasses{}
	}
	li.classes[d] = cc
	return cc, nil
}

// SuffixClasses returns (and caches) the degree-d cut classes of call site
// cs's suffixes (Suffixes(cs).Seqs). At most MaxDegSuffix+1 are cached per
// site.
func (fi *FuncInfo) SuffixClasses(cs *CallSiteInfo, d int) (*CutClasses, error) {
	ss, err := fi.Suffixes(cs)
	if err != nil {
		return nil, err
	}
	x, err := cs.SuffixExt(d)
	if err != nil {
		return nil, err
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cc, ok := cs.classes[d]; ok {
		return cc, nil
	}
	cc, err := newCutClasses(x, ss.Seqs)
	if err != nil {
		return nil, err
	}
	if cs.classes == nil {
		cs.classes = map[int]*CutClasses{}
	}
	cs.classes[d] = cc
	return cc, nil
}

// PathCounts returns (and caches) how many of the function's BL paths
// start at its entry (the callee halves of Type I pairs) and how many end
// at its exit (the callee halves of Type II pairs), counted on the DAG
// without enumerating a path.
func (fi *FuncInfo) PathCounts() (entry, exit int64) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if !fi.counted {
		fi.counted = true
		d := fi.DAG
		// Entry paths: every path but those that open with an
		// En->h dummy.
		fi.entryPaths = d.Total()
		for _, e := range d.Out[fi.G.Entry()] {
			if e.Kind == bl.EntryDummy {
				fi.entryPaths -= d.NumPaths[e.To]
			}
		}
		// Exit paths: routes to Ex whose last edge is real.
		toExit := make([]int64, fi.G.Len())
		for i := range toExit {
			toExit[i] = -1
		}
		var count func(v cfg.NodeID) int64
		count = func(v cfg.NodeID) int64 {
			if v == fi.G.Exit() {
				return 1
			}
			if n := toExit[v]; n >= 0 {
				return n
			}
			var n int64
			for _, e := range d.Out[v] {
				if e.Kind != bl.ExitDummy {
					n += count(e.To)
				}
			}
			toExit[v] = n
			return n
		}
		fi.exitPaths = count(fi.G.Entry())
	}
	return fi.entryPaths, fi.exitPaths
}
