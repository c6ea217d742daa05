package profile

import (
	"errors"
	"fmt"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
)

// MaxRoutesPerSite bounds prefix/suffix enumeration per call site.
const MaxRoutesPerSite = 200_000

// ErrTooManyRoutes is wrapped by the error Prefixes or Suffixes returns for
// a call site with more than MaxRoutesPerSite routes. The overflow is
// cached on the site like a finished enumeration, so asking again costs
// nothing.
var ErrTooManyRoutes = errors.New("profile: call site exceeds the route bound")

// PrefixRoute is one way a BL path can reach a call site: the caller-side
// first component of a Type I interesting path.
type PrefixRoute struct {
	// Accum is the Ball-Larus partial sum at the site — the `r` the
	// instrumentation passes on the call, unique per route.
	Accum int64
	// Blocks is the block sequence from the path start (procedure entry
	// or a loop header) to the call-site block inclusive.
	Blocks []cfg.NodeID
	// StartHeader is the loop header the route starts at, or cfg.None
	// for routes from the procedure entry.
	StartHeader cfg.NodeID
}

// PrefixSet enumerates all prefix routes of one call site.
type PrefixSet struct {
	Site    cfg.NodeID
	Items   []PrefixRoute
	byAccum map[int64]int
}

// IndexOfAccum resolves a dynamic prefix register value to its route index,
// or -1.
func (ps *PrefixSet) IndexOfAccum(a int64) int {
	if i, ok := ps.byAccum[a]; ok {
		return i
	}
	return -1
}

// Prefixes enumerates (and caches) the prefix routes of call site cs. Safe
// for concurrent callers.
func (fi *FuncInfo) Prefixes(cs *CallSiteInfo) (*PrefixSet, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.prefixes != nil || cs.prefixErr != nil {
		return cs.prefixes, cs.prefixErr
	}
	d := fi.DAG
	// Restrict the walk to nodes that reach the site through DAG edges.
	reach := map[cfg.NodeID]bool{cs.Block: true}
	stack := []cfg.NodeID{cs.Block}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range d.In[v] {
			if !reach[e.From] {
				reach[e.From] = true
				stack = append(stack, e.From)
			}
		}
	}

	ps := &PrefixSet{Site: cs.Block, byAccum: map[int64]int{}}
	var blocks []cfg.NodeID
	var walk func(v cfg.NodeID, accum int64, startHeader cfg.NodeID) error
	walk = func(v cfg.NodeID, accum int64, startHeader cfg.NodeID) error {
		blocks = append(blocks, v)
		defer func() { blocks = blocks[:len(blocks)-1] }()
		if v == cs.Block {
			if len(ps.Items) >= MaxRoutesPerSite {
				return fmt.Errorf("%w: more than %d prefixes at %s.%s",
					ErrTooManyRoutes, MaxRoutesPerSite, fi.Fn.Name, fi.G.Label(cs.Block))
			}
			ps.byAccum[accum] = len(ps.Items)
			ps.Items = append(ps.Items, PrefixRoute{
				Accum:       accum,
				Blocks:      append([]cfg.NodeID(nil), blocks...),
				StartHeader: startHeader,
			})
			return nil
		}
		for _, e := range d.Out[v] {
			if e.Kind == bl.ExitDummy || !reach[e.To] {
				continue
			}
			if e.Kind == bl.EntryDummy {
				// A route beginning at a loop header: restart the
				// block list at the header.
				saved := blocks
				blocks = nil
				err := walk(e.To, accum+e.Val, e.Backedge.To)
				blocks = saved
				if err != nil {
					return err
				}
				continue
			}
			if err := walk(e.To, accum+e.Val, startHeader); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(fi.G.Entry(), 0, cfg.None); err != nil {
		cs.prefixErr = err
		return nil, err
	}
	cs.prefixes = ps
	return ps, nil
}

// SuffixSet enumerates the caller-side second components of Type II
// interesting paths at one call site: the block sequences from the call-site
// block to the end of the enclosing BL path.
type SuffixSet struct {
	Site cfg.NodeID
	// Seqs holds the suffix block sequences in DFS order. A suffix that
	// ends at a backedge stops at the backedge source; one that runs to
	// the procedure exit includes the exit block, mirroring
	// bl.Path.Blocks so that dynamic slices match exactly.
	Seqs  [][]cfg.NodeID
	index map[string]int
	// byRemainder maps the Ball-Larus sum of each continuation from the
	// site to Ex (a path's id minus its register value at the site) to
	// its suffix. Distinct continuations have distinct sums; two that
	// share a block sequence (ends at two backedges of one tail) share
	// the suffix.
	byRemainder map[int64]int32
}

// IndexOf resolves a suffix block sequence to its index, or -1.
func (ss *SuffixSet) IndexOf(blocks []cfg.NodeID) int {
	if i, ok := ss.index[bl.SeqKey(blocks)]; ok {
		return i
	}
	return -1
}

// IndexOfRemainder resolves a path through the site, given by its id minus
// its register value at the site, to its suffix index, or -1.
func (ss *SuffixSet) IndexOfRemainder(rem int64) int {
	if i, ok := ss.byRemainder[rem]; ok {
		return int(i)
	}
	return -1
}

// Suffixes enumerates (and caches) the suffix sequences of call site cs.
// Safe for concurrent callers.
func (fi *FuncInfo) Suffixes(cs *CallSiteInfo) (*SuffixSet, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.suffixes != nil || cs.suffixErr != nil {
		return cs.suffixes, cs.suffixErr
	}
	d := fi.DAG
	ss := &SuffixSet{Site: cs.Block, index: map[string]int{}, byRemainder: map[int64]int32{}}
	var blocks []cfg.NodeID
	var walk func(v cfg.NodeID, sum int64) error
	walk = func(v cfg.NodeID, sum int64) error {
		blocks = append(blocks, v)
		defer func() { blocks = blocks[:len(blocks)-1] }()
		if v == fi.G.Exit() {
			return ss.record(fi, cs, blocks, sum)
		}
		for _, e := range d.Out[v] {
			if e.Kind == bl.EntryDummy {
				continue
			}
			if e.Kind == bl.ExitDummy {
				// Path ends here by taking a backedge; the suffix
				// stops at the current block.
				if err := ss.record(fi, cs, blocks, sum+e.Val); err != nil {
					return err
				}
				continue
			}
			if err := walk(e.To, sum+e.Val); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(cs.Block, 0); err != nil {
		cs.suffixErr = err
		return nil, err
	}
	cs.suffixes = ss
	return ss, nil
}

func (ss *SuffixSet) record(fi *FuncInfo, cs *CallSiteInfo, blocks []cfg.NodeID, rem int64) error {
	if len(ss.Seqs) >= MaxRoutesPerSite {
		return fmt.Errorf("%w: more than %d suffixes at %s.%s",
			ErrTooManyRoutes, MaxRoutesPerSite, fi.Fn.Name, fi.G.Label(cs.Block))
	}
	key := bl.SeqKey(blocks)
	if i, dup := ss.index[key]; dup {
		// Same block sequence reachable as two distinct path
		// continuations (ends at two different backedges from one
		// tail): one interesting-path component, recorded once.
		ss.byRemainder[rem] = int32(i)
		return nil
	}
	ss.index[key] = len(ss.Seqs)
	ss.byRemainder[rem] = int32(len(ss.Seqs))
	ss.Seqs = append(ss.Seqs, append([]cfg.NodeID(nil), blocks...))
	return nil
}
