package estimate

import (
	"fmt"

	"pathprof/internal/olpath"
	"pathprof/internal/profile"
)

// LoopResult is the bound estimate for one loop's n^2 interesting paths:
// row i and column j are loop-path indices, pair (i, j) being loop path i
// followed by loop path j.
type LoopResult struct {
	Estimate
	Li *profile.LoopInfo
}

// Loop estimates the interesting-path frequencies of one loop.
//
// k = -1 estimates from the BL profile alone (the paper's baseline);
// k >= 0 additionally uses the degree-k overlapping-path counters
// (clamped to the loop's maximum useful degree).
func Loop(fi *profile.FuncInfo, li *profile.LoopInfo, blProf map[int64]uint64,
	loopCounters map[profile.LoopKey]uint64, k int, mode Mode) (*LoopResult, error) {

	b := newBatch(nil, oneFunc(fi.Index, blProf))
	b.sortLoops(loopCounters, &loopRef{fi.Index, li.Index})
	return b.Loop(fi, li, k, mode)
}

// Loop is the package-level Loop on the batch's counters.
func (b *Batch) Loop(fi *profile.FuncInfo, li *profile.LoopInfo, k int, mode Mode) (*LoopResult, error) {
	fp, err := b.paths(fi)
	if err != nil {
		return nil, err
	}
	// Loop flow (F, E, X per loop path), then the caps of Eqs. 5 and 6:
	// row i carries F_i - X_i, column j carries F_j - E_j.
	n, nl := li.LP.Count(), len(fi.Loops)
	g := getGrid()
	defer gridPool.Put(g)
	fx := g.zeros(2 * n)
	rowCap, colCap := fx[:n], fx[n:]
	for i, c := range fp.counts {
		o := fp.occ[i*nl+li.Index]
		if o.seq < 0 {
			continue
		}
		rowCap[o.seq] += c
		colCap[o.seq] += c
		if o.last {
			rowCap[o.seq] -= c
		}
		if o.first {
			colCap[o.seq] -= c
		}
	}
	for i := 0; i < n; i++ {
		if rowCap[i] > 0 || b.dense {
			g.addRow(int64(i), rowCap[i])
		}
		if colCap[i] > 0 || b.dense {
			g.addCol(int64(i), colCap[i])
		}
	}

	sound := rowColEqualitySound(fi, li)
	if k < 0 {
		// BL-only: row sums bounded by F_i - X_i; equalities only in
		// Extended mode on loops where that is provably exact.
		g.rowSums(mode == Extended && sound)
		if mode == Extended && sound {
			g.colSums(true)
		}
	} else {
		if err := b.loopOF(g, fi, li, fp, k); err != nil {
			return nil, err
		}
		if mode == Extended && sound {
			g.rowSums(true)
			g.colSums(true)
		}
	}

	est, err := g.solve(n * n)
	if err != nil {
		return nil, err
	}
	return &LoopResult{Estimate: est, Li: li}, nil
}

// loopOF adds the paper's OF sum equalities from degree-k loop counters:
// for each first component i and each distinct degree-d cut c, d <= k,
// the pairs {(i, j) : cut(j) == c} sum to the observed count. The
// degree-d groups are exact aggregations of the degree-k counters, and
// including the coarser levels makes precision provably monotone in the
// profiled degree.
func (b *Batch) loopOF(g *grid, fi *profile.FuncInfo, li *profile.LoopInfo, fp *funcPaths, k int) error {
	effK := li.EffectiveK(k)
	classes := g.classes[:0]
	for d := 0; d <= effK; d++ {
		cc, err := li.CutClasses(d)
		if err != nil {
			return err
		}
		classes = append(classes, cc)
	}
	g.classes = classes
	// A counter's base path id maps to the first component's loop-path
	// index; counters whose base has no full occurrence belong to no
	// interesting pair and are excluded — exactly what keeps the
	// equalities exact (see DESIGN.md).
	for _, o := range b.loops[loopRef{fi.Index, li.Index}] {
		var occ occurrence
		if i := fp.index(o.base); i >= 0 {
			occ = fp.occ[i*len(fi.Loops)+li.Index]
		} else {
			if err := fi.DAG.PathInto(&b.path, o.base); err != nil {
				return err
			}
			occ = occurrenceIn(&b.path, fi, li)
		}
		if occ.seq < 0 {
			continue
		}
		var err error
		g.obsCls, err = classify(g.obsCls, classes, li.Ext, o.ext)
		if err != nil {
			return fmt.Errorf("estimate: decode loop ext: %w", err)
		}
		g.observe(g.rowOf(int64(occ.seq)), o.n)
	}
	for d, cc := range classes {
		g.colCls = g.colCls[:0]
		for _, j := range g.cols {
			g.colCls = append(g.colCls, cc.Of[j])
		}
		g.ofSums(len(cc.Rep), effK+1, d)
	}
	return nil
}

// classify appends the cut class, at every degree d < len(classes), of the
// extension observed as route (a route of the region at the top degree).
// A route whose top-degree cut is some static sequence's shares that
// sequence's class at every degree; any other is decoded and its cuts
// looked up one degree at a time (-1 where no static sequence cuts the
// same way). Only an undecodable route is an error.
func classify(dst []int32, classes []*profile.CutClasses, ext func(int) (*olpath.Ext, error), route int64) ([]int32, error) {
	top := len(classes) - 1
	if c := classes[top].ByRoute(route); c >= 0 {
		rep := classes[top].Rep[c]
		for _, cc := range classes {
			dst = append(dst, cc.Of[rep])
		}
		return dst, nil
	}
	x, err := ext(top)
	if err != nil {
		return nil, err
	}
	blocks, err := x.Decode(route)
	if err != nil {
		return nil, err
	}
	for d, cc := range classes {
		xd, err := ext(d)
		if err != nil {
			return nil, err
		}
		cl := int32(-1)
		if r, err := xd.Encode(xd.CutSeq(blocks)); err == nil {
			cl = cc.ByRoute(r)
		}
		dst = append(dst, cl)
	}
	return dst, nil
}

// rowColEqualitySound reports whether row/column sum equalities are exact
// for this loop: every backedge crossing must be followed by a complete
// iteration and every non-first iteration preceded by one. That holds when
// the loop has no inner loops (no inner backedges can cut a BL path
// mid-iteration) and every exit edge leaves from a tail.
func rowColEqualitySound(fi *profile.FuncInfo, li *profile.LoopInfo) bool {
	if len(li.Loop.Children) > 0 {
		return false
	}
	for _, e := range li.Loop.ExitEdges(fi.G) {
		tail := false
		for _, be := range li.Loop.Backedges {
			if be.From == e.From {
				tail = true
			}
		}
		if !tail {
			return false
		}
	}
	return true
}
