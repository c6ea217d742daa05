package estimate

import (
	"slices"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/profile"
)

// Batch is one profile prepared for estimation. NewBatch sorts each
// overlapping-path counter family by structure in one pass; each
// function's profiled BL paths are reconstructed once, on first use, into
// facts that every loop and call edge of the function then shares (its
// loop occurrences and its register value at each call site). A Batch
// holds per-call scratch, so it serves one goroutine; the static caches it
// reads live on profile.Info and are shared.
type Batch struct {
	info  *profile.Info
	bl    []map[int64]uint64
	loops map[loopRef][]loopObs
	t1    map[profile.CallKey][]extObs
	t2    map[profile.CallKey][]extObs
	funcs map[int]*funcPaths

	path bl.Path
	// dense keeps every pair of the grid, zero caps included — the
	// problem as it was before zero-cap pairs were dropped, which the
	// tests solve to show the drop changes no bound — and so takes every
	// BL path of a function as profiled, most with count 0.
	dense bool
}

// loopRef names one loop of one function.
type loopRef struct{ fn, loop int }

// loopObs is one complete-iteration loop counter: base path, extension
// route, count.
type loopObs struct{ base, ext, n int64 }

// extObs is one interprocedural counter: its first component (a Type I
// prefix register value or a Type II callee path id), its extension route,
// and its count.
type extObs struct{ first, ext, n int64 }

// NewBatch prepares counters c of a program analyzed as info.
func NewBatch(info *profile.Info, c *profile.Counters) *Batch {
	b := newBatch(info, c.BL)
	b.sortLoops(c.Loop, nil)
	b.sortTypeI(c.TypeI, nil)
	b.sortTypeII(c.TypeII, nil)
	return b
}

func newBatch(info *profile.Info, blProfiles []map[int64]uint64) *Batch {
	return &Batch{
		info:  info,
		bl:    blProfiles,
		loops: map[loopRef][]loopObs{},
		t1:    map[profile.CallKey][]extObs{},
		t2:    map[profile.CallKey][]extObs{},
		funcs: map[int]*funcPaths{},
	}
}

// oneFunc is a BL profile table holding only function fidx's profile, for
// the single-structure entry points.
func oneFunc(fidx int, prof map[int64]uint64) []map[int64]uint64 {
	out := make([]map[int64]uint64, fidx+1)
	out[fidx] = prof
	return out
}

// sortLoops buckets complete-iteration loop counters by loop (only loop
// only's, when only is non-nil). Counters whose following iteration was
// not complete belong to no interesting pair.
func (b *Batch) sortLoops(counters map[profile.LoopKey]uint64, only *loopRef) {
	for key, n := range counters {
		ref := loopRef{key.Func, key.Loop}
		if !key.Full || (only != nil && ref != *only) {
			continue
		}
		b.loops[ref] = append(b.loops[ref], loopObs{base: key.Base, ext: key.Ext, n: int64(n)})
	}
}

// sortTypeI buckets Type I counters by call edge (only edge only's, when
// only is non-nil).
func (b *Batch) sortTypeI(counters map[profile.TypeIKey]uint64, only *profile.CallKey) {
	for key, n := range counters {
		ck := profile.CallKey{Caller: key.Caller, Site: key.Site, Callee: key.Callee}
		if only != nil && ck != *only {
			continue
		}
		b.t1[ck] = append(b.t1[ck], extObs{first: key.Prefix, ext: key.Ext, n: int64(n)})
	}
}

// sortTypeII buckets Type II counters by call edge (only edge only's, when
// only is non-nil).
func (b *Batch) sortTypeII(counters map[profile.TypeIIKey]uint64, only *profile.CallKey) {
	for key, n := range counters {
		ck := profile.CallKey{Caller: key.Caller, Site: key.Site, Callee: key.Callee}
		if only != nil && ck != *only {
			continue
		}
		b.t2[ck] = append(b.t2[ck], extObs{first: key.Path, ext: key.Ext, n: int64(n)})
	}
}

// funcPaths is what one Batch knows about one function's profiled BL
// paths: the ids with a non-zero count, ascending, and per id its count,
// its shape, its occurrence in each of the function's loops, its register
// value at each call site, and its blocks.
type funcPaths struct {
	ids    []int64
	counts []int64
	// entry and exit report a path that starts at the procedure entry
	// (not at a loop header) and one that ends at the exit (not at a
	// backedge).
	entry, exit []bool
	// occ[i*len(Loops)+l] is path i's occurrence in loop l.
	occ []occurrence
	// accum[i*len(CallSites)+s] is path i's register value at call site
	// s, or -1 when the path does not visit the site.
	accum []int64
	// blocks[ends[i]:ends[i+1]] are path i's blocks.
	blocks []cfg.NodeID
	ends   []int32

	// routes[i*(routesK+1)+d] is the route of entry path i's degree-d
	// cut in the function's degree-routesK entry region (cutRoutes),
	// filled on the first Type I problem with this function as callee.
	routes  []int64
	routesK int
}

// occurrence is the part of bl.Occurrence the estimators read: the full
// iteration sequence a path holds (-1 for none) and whether it opens or
// closes a trip into the loop.
type occurrence struct {
	seq         int32
	first, last bool
}

// index returns the position of id among the profiled paths, or -1.
func (fp *funcPaths) index(id int64) int {
	if i, ok := slices.BinarySearch(fp.ids, id); ok {
		return i
	}
	return -1
}

// pathBlocks returns profiled path i's blocks.
func (fp *funcPaths) pathBlocks(i int) []cfg.NodeID { return fp.blocks[fp.ends[i]:fp.ends[i+1]] }

// paths returns fi's path facts, reconstructing its profiled paths on the
// first call.
func (b *Batch) paths(fi *profile.FuncInfo) (*funcPaths, error) {
	if fp, ok := b.funcs[fi.Index]; ok {
		return fp, nil
	}
	var prof map[int64]uint64
	if fi.Index < len(b.bl) {
		prof = b.bl[fi.Index]
	}
	// One buffer for the int64 columns.
	nl, ns := len(fi.Loops), len(fi.CallSites)
	n := len(prof)
	if b.dense {
		n = int(fi.DAG.Total())
	}
	nums := make([]int64, n*(2+ns))
	fp := &funcPaths{ids: nums[:0:n]}
	if b.dense {
		for id := 0; id < n; id++ {
			fp.ids = append(fp.ids, int64(id))
		}
	} else {
		for id, c := range prof {
			if c != 0 {
				fp.ids = append(fp.ids, id)
			}
		}
		slices.Sort(fp.ids)
	}
	fp.counts = nums[n : n+len(fp.ids)]
	fp.accum = nums[2*n : 2*n+len(fp.ids)*ns]
	n = len(fp.ids)
	flags := make([]bool, 2*n)
	fp.entry, fp.exit = flags[:n], flags[n:]
	fp.occ = make([]occurrence, n*nl)
	fp.ends = make([]int32, 1, n+1)
	fp.blocks = make([]cfg.NodeID, 0, n*len(fi.Fn.Blocks)/2)
	p := &b.path
	for i, id := range fp.ids {
		if err := fi.DAG.PathInto(p, id); err != nil {
			return nil, err
		}
		fp.counts[i] = int64(prof[id])
		_, afterBack := p.StartHeader()
		_, atBack := p.EndBackedge()
		fp.entry[i], fp.exit[i] = !afterBack, !atBack
		for l, li := range fi.Loops {
			fp.occ[i*nl+l] = occurrenceIn(p, fi, li)
		}
		for s, cs := range fi.CallSites {
			a, ok := p.AccumAt(cs.Block)
			if !ok {
				a = -1
			}
			fp.accum[i*ns+s] = a
		}
		fp.blocks = append(fp.blocks, p.Blocks...)
		fp.ends = append(fp.ends, int32(len(fp.blocks)))
	}
	b.funcs[fi.Index] = fp
	return fp, nil
}

// occurrenceIn reduces path p's occurrence in loop li to what the
// estimators read.
func occurrenceIn(p *bl.Path, fi *profile.FuncInfo, li *profile.LoopInfo) occurrence {
	occ, ok := bl.AnalyzeLoop(p, li.LP, fi.DAG)
	if !ok || !occ.Full || occ.SeqIndex < 0 {
		return occurrence{seq: -1}
	}
	return occurrence{seq: int32(occ.SeqIndex), first: occ.First, last: occ.Last}
}
