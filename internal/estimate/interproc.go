package estimate

import (
	"errors"
	"fmt"

	"pathprof/internal/cfg"
	"pathprof/internal/olpath"
	"pathprof/internal/profile"
)

// MaxVars bounds the variable count of one interprocedural estimation
// problem; sites beyond it are reported as skipped rather than estimated.
const MaxVars = 1 << 20

// ErrTooLarge reports an estimation problem over MaxVars, or one whose call
// site has more routes than profile.MaxRoutesPerSite: the problem is
// skipped, not failed.
var ErrTooLarge = fmt.Errorf("estimate: problem exceeds %d variables", MaxVars)

// InterResult is the bound estimate for the interesting paths of one
// (caller, call site, callee) triple, one direction (Type I or Type II).
// For Type I, row p is a prefix index (profile.PrefixSet.Items) and column
// q a callee BL path id: pair (p, q) is prefix p concatenated with callee
// path q. For Type II, row q is a callee BL path id and column s a suffix
// index (profile.SuffixSet.Seqs): pair (q, s) is callee path q concatenated
// with caller suffix s.
type InterResult struct {
	Estimate
}

// TypeI estimates the Type I interesting paths of one call edge.
//
// blCaller/blCallee are BL profiles, t1 the degree-k Type I counters
// (ignored for k < 0), calls the call count C of this (caller, site,
// callee).
func TypeI(info *profile.Info, caller *profile.FuncInfo, cs *profile.CallSiteInfo,
	calleeIdx int, blCaller, blCallee map[int64]uint64,
	t1 map[profile.TypeIKey]uint64, calls uint64, k int, mode Mode) (*InterResult, error) {

	b := newBatch(info, twoFuncs(caller.Index, blCaller, calleeIdx, blCallee))
	if k >= 0 {
		b.sortTypeI(t1, &profile.CallKey{Caller: caller.Index, Site: cs.Index, Callee: calleeIdx})
	}
	return b.TypeI(caller, cs, calleeIdx, calls, k, mode)
}

// TypeII estimates the Type II interesting paths of one call edge.
func TypeII(info *profile.Info, caller *profile.FuncInfo, cs *profile.CallSiteInfo,
	calleeIdx int, blCaller, blCallee map[int64]uint64,
	t2 map[profile.TypeIIKey]uint64, calls uint64, k int, mode Mode) (*InterResult, error) {

	b := newBatch(info, twoFuncs(caller.Index, blCaller, calleeIdx, blCallee))
	if k >= 0 {
		b.sortTypeII(t2, &profile.CallKey{Caller: caller.Index, Site: cs.Index, Callee: calleeIdx})
	}
	return b.TypeII(caller, cs, calleeIdx, calls, k, mode)
}

// twoFuncs is a BL profile table holding a caller's and a callee's
// profiles (one function when they coincide).
func twoFuncs(caller int, blCaller map[int64]uint64, callee int, blCallee map[int64]uint64) []map[int64]uint64 {
	out := oneFunc(max(caller, callee), nil)
	out[caller], out[callee] = blCaller, blCallee
	return out
}

// TypeI is the package-level TypeI on the batch's counters.
func (b *Batch) TypeI(caller *profile.FuncInfo, cs *profile.CallSiteInfo,
	calleeIdx int, calls uint64, k int, mode Mode) (*InterResult, error) {

	callee := b.info.Funcs[calleeIdx]
	ps, err := caller.Prefixes(cs)
	if errors.Is(err, profile.ErrTooManyRoutes) {
		return nil, ErrTooLarge
	}
	if err != nil {
		return nil, err
	}
	entryPaths, _ := callee.PathCounts()
	np, nq := int64(len(ps.Items)), entryPaths
	if np == 0 || nq == 0 || (b.dense && np*nq > MaxVars) {
		return nil, ErrTooLarge
	}
	cp, err := b.paths(caller)
	if err != nil {
		return nil, err
	}
	qp, err := b.paths(callee)
	if err != nil {
		return nil, err
	}

	// Rows: F_p, the frequency of each prefix, from the caller's BL
	// profile.
	g := getGrid()
	defer gridPool.Put(g)
	fp := g.zeros(int(np))
	ns := len(caller.CallSites)
	for i, c := range cp.counts {
		if a := cp.accum[i*ns+cs.Index]; a >= 0 {
			if pi := ps.IndexOfAccum(a); pi >= 0 {
				fp[pi] += c
			}
		}
	}
	for pi, f := range fp {
		if f > 0 || b.dense {
			g.addRow(int64(pi), f)
		}
	}
	// Columns: F_q, the frequency of each callee path that starts at
	// the callee's entry.
	for i, c := range qp.counts {
		if qp.entry[i] && (c > 0 || b.dense) {
			g.addCol(qp.ids[i], c)
		}
	}
	if g.vars() > MaxVars {
		return nil, ErrTooLarge
	}

	// Eq. 9: all pairs sum to the call count.
	g.all(int64(calls), true)

	if k >= 0 {
		effK := callee.EffectiveKEntry(k)
		x, err := callee.EntryExt(effK)
		if err != nil {
			return nil, err
		}
		if err := b.typeIOF(g, caller, cs, calleeIdx, ps, qp, x); err != nil {
			return nil, err
		}
	}

	if mode == Extended && !cs.Indirect {
		// Every traversal of prefix p executes the call, so row sums
		// equal F_p exactly for direct calls.
		g.rowSums(true)
	}

	est, err := g.solve(int(np * nq))
	if err != nil {
		return nil, err
	}
	return &InterResult{Estimate: est}, nil
}

// typeIOF adds the OF sum equalities of a Type I problem at every degree
// d <= x.K (see the loop estimator for why the coarser levels are
// included). The callee's paths are not enumerated, so the cut classes of
// the live columns are found per call: the route of a cut in x is the
// running route sum of its sequence where the cut ends, and routes encode
// sequences one to one. An observed extension is classed with the live
// column of the same top-degree route, or else decoded.
func (b *Batch) typeIOF(g *grid, caller *profile.FuncInfo, cs *profile.CallSiteInfo, calleeIdx int,
	ps *profile.PrefixSet, qp *funcPaths, x *olpath.Ext) error {

	stride := x.K + 1
	for c := range g.cols {
		g.keys = append(g.keys, qp.entryCuts(x, qp.index(g.cols[c]))...)
	}
	if g.top == nil {
		g.top, g.class = map[int64]int{}, map[int64]int32{}
	}
	top, class := g.top, g.class
	clear(top)
	for c := len(g.cols) - 1; c >= 0; c-- {
		top[g.keys[c*stride+x.K]] = c
	}
	for _, o := range b.t1[profile.CallKey{Caller: caller.Index, Site: cs.Index, Callee: calleeIdx}] {
		pi := ps.IndexOfAccum(o.first)
		if pi < 0 {
			return fmt.Errorf("estimate: unknown prefix accum %d at %s", o.first, caller.Fn.Name)
		}
		if c, ok := top[o.ext]; ok {
			g.obsKeys = append(g.obsKeys, g.keys[c*stride:(c+1)*stride]...)
		} else {
			blocks, err := x.Decode(o.ext)
			if err != nil {
				return err
			}
			g.obsKeys = cutRoutes(g.obsKeys, x, blocks)
		}
		g.observe(g.rowOf(int64(pi)), o.n)
	}
	// Number the classes of each degree by their routes.
	g.obsCls = append(g.obsCls[:0], make([]int32, len(g.obsN)*stride)...)
	for d := 0; d <= x.K; d++ {
		clear(class)
		g.colCls = g.colCls[:0]
		for c := range g.cols {
			r := g.keys[c*stride+d]
			cl, ok := class[r]
			if !ok {
				cl = int32(len(class))
				class[r] = cl
			}
			g.colCls = append(g.colCls, cl)
		}
		for o := range g.obsN {
			cl, ok := class[g.obsKeys[o*stride+d]]
			if !ok {
				cl = -1
			}
			g.obsCls[o*stride+d] = cl
		}
		g.ofSums(len(class), stride, d)
	}
	return nil
}

// entryCuts returns the cut routes (cutRoutes) of profiled entry path i in
// x, the callee's entry region at the problem's degree. They are computed
// for every entry path on first use and kept for the Batch's other call
// edges into the function.
func (fp *funcPaths) entryCuts(x *olpath.Ext, i int) []int64 {
	stride := x.K + 1
	if fp.routes == nil || fp.routesK != x.K {
		fp.routes, fp.routesK = make([]int64, 0, len(fp.ids)*stride), x.K
		for j := range fp.ids {
			if fp.entry[j] {
				fp.routes = cutRoutes(fp.routes, x, fp.pathBlocks(j))
			} else {
				fp.routes = append(fp.routes, make([]int64, stride)...)
			}
		}
	}
	return fp.routes[i*stride : (i+1)*stride]
}

// cutRoutes appends, for every degree d <= x.K, the route in x of blocks'
// degree-d cut (olpath.Ext.CutSeq): the running route sum at the block
// where the predicate count first reaches d+1, or at the last block.
// blocks must start at x's root; every edge up to its degree-x.K cut is
// then a kept edge of x.
func cutRoutes(dst []int64, x *olpath.Ext, blocks []cfg.NodeID) []int64 {
	var sum int64
	preds, d := 0, 0
	for i, v := range blocks {
		if i > 0 {
			sum += x.Val(cfg.Edge{From: blocks[i-1], To: v})
		}
		if x.D.PredicateLike(v) {
			preds++
		}
		for ; d < preds && d <= x.K; d++ {
			dst = append(dst, sum)
		}
		if d > x.K {
			return dst
		}
	}
	for ; d <= x.K; d++ {
		dst = append(dst, sum)
	}
	return dst
}

// TypeII is the package-level TypeII on the batch's counters.
func (b *Batch) TypeII(caller *profile.FuncInfo, cs *profile.CallSiteInfo,
	calleeIdx int, calls uint64, k int, mode Mode) (*InterResult, error) {

	callee := b.info.Funcs[calleeIdx]
	_, exitPaths := callee.PathCounts()
	ss, err := caller.Suffixes(cs)
	if errors.Is(err, profile.ErrTooManyRoutes) {
		return nil, ErrTooLarge
	}
	if err != nil {
		return nil, err
	}
	nq, ns := exitPaths, int64(len(ss.Seqs))
	if nq == 0 || ns == 0 || (b.dense && nq*ns > MaxVars) {
		return nil, ErrTooLarge
	}
	cp, err := b.paths(caller)
	if err != nil {
		return nil, err
	}
	qp, err := b.paths(callee)
	if err != nil {
		return nil, err
	}

	g := getGrid()
	defer gridPool.Put(g)
	// Rows: F_q, the frequency of each callee path that ends at the
	// callee's exit.
	for i, c := range qp.counts {
		if qp.exit[i] && (c > 0 || b.dense) {
			g.addRow(qp.ids[i], c)
		}
	}
	// Columns: F_s, the frequency of each caller suffix.
	fs := g.zeros(int(ns))
	nsites := len(caller.CallSites)
	for i, c := range cp.counts {
		if a := cp.accum[i*nsites+cs.Index]; a >= 0 {
			if si := ss.IndexOfRemainder(cp.ids[i] - a); si >= 0 {
				fs[si] += c
			}
		}
	}
	for si, f := range fs {
		if f > 0 || b.dense {
			g.addCol(int64(si), f)
		}
	}
	if g.vars() > MaxVars {
		return nil, ErrTooLarge
	}

	g.all(int64(calls), true)

	if k >= 0 {
		if err := b.typeIIOF(g, caller, cs, callee, k, qp); err != nil {
			return nil, err
		}
	}

	if mode == Extended && soloCallSite(b.info, calleeIdx, caller, cs) {
		// The callee returns only to this site, so each exit path q's
		// row sums to F_q exactly.
		g.rowSums(true)
	}

	est, err := g.solve(int(nq * ns))
	if err != nil {
		return nil, err
	}
	return &InterResult{Estimate: est}, nil
}

// typeIIOF adds the OF sum equalities of a Type II problem at every degree
// d <= k, the suffixes' cut classes coming from the call site's cache.
func (b *Batch) typeIIOF(g *grid, caller *profile.FuncInfo, cs *profile.CallSiteInfo, callee *profile.FuncInfo,
	k int, qp *funcPaths) error {

	effK := cs.EffectiveKSuffix(k)
	classes := g.classes[:0]
	for d := 0; d <= effK; d++ {
		cc, err := caller.SuffixClasses(cs, d)
		if err != nil {
			return err
		}
		classes = append(classes, cc)
	}
	g.classes = classes
	for _, o := range b.t2[profile.CallKey{Caller: caller.Index, Site: cs.Index, Callee: callee.Index}] {
		row := g.rowOf(o.first)
		if row < 0 && !b.isExitPath(callee, qp, o.first) {
			return fmt.Errorf("estimate: unknown callee exit path %d", o.first)
		}
		var err error
		g.obsCls, err = classify(g.obsCls, classes, cs.SuffixExt, o.ext)
		if err != nil {
			return err
		}
		g.observe(row, o.n)
	}
	for d, cc := range classes {
		g.colCls = g.colCls[:0]
		for _, si := range g.cols {
			g.colCls = append(g.colCls, cc.Of[si])
		}
		g.ofSums(len(cc.Rep), effK+1, d)
	}
	return nil
}

// isExitPath reports whether id is one of callee's BL paths that end at
// its exit.
func (b *Batch) isExitPath(callee *profile.FuncInfo, qp *funcPaths, id int64) bool {
	if i := qp.index(id); i >= 0 {
		return qp.exit[i]
	}
	if err := callee.DAG.PathInto(&b.path, id); err != nil {
		return false
	}
	_, atBack := b.path.EndBackedge()
	return !atBack
}

// soloCallSite reports whether callee is statically called from exactly one
// site — this one — and no indirect sites exist in the program.
func soloCallSite(info *profile.Info, calleeIdx int, caller *profile.FuncInfo, cs *profile.CallSiteInfo) bool {
	count := 0
	for _, fi := range info.Funcs {
		for _, other := range fi.CallSites {
			if other.Indirect {
				return false
			}
			if other.Callee == calleeIdx {
				count++
				if fi != caller || other != cs {
					return false
				}
			}
		}
	}
	return count == 1
}
