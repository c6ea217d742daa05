package estimate

import (
	"slices"
	"sync"

	"pathprof/internal/bounds"
	"pathprof/internal/profile"
)

// grid assembles one estimation problem over its live pairs: live rows ×
// live columns, pair (r, c) being variable r*len(cols)+c. Only the solved
// result and a copy of the live keys outlive a problem, so grids and their
// buffers are pooled across problems, calls and goroutines.
type grid struct {
	rows, cols     []int64
	rowCap, colCap []int64

	prob bounds.Problem
	// members backs every group's Vars.
	members []int

	// OF scratch: live-class renumbering, class members, sums.
	remap              []int32
	start, fill, order []int32
	vals               []int64
	colCls             []int32
	obsRow             []int32
	obsCls             []int32
	obsN               []int64
	keys, obsKeys      []int64
	// top and class number Type I cut routes (typeIOF).
	top   map[int64]int
	class map[int64]int32
	// freq holds per-problem frequency tables (loop flow, prefix and
	// suffix frequencies); classes the cut classes of each degree.
	freq    []int64
	classes []*profile.CutClasses
}

// zeros returns n zeroed int64s from the frequency scratch.
func (g *grid) zeros(n int) []int64 {
	g.freq = append(g.freq[:0], make([]int64, n)...)
	return g.freq
}

var gridPool = sync.Pool{New: func() any { return new(grid) }}

// getGrid returns an empty grid from the pool; put it back when the
// problem is solved.
func getGrid() *grid {
	g := gridPool.Get().(*grid)
	g.reset()
	return g
}

// reset empties the grid for a new problem.
func (g *grid) reset() {
	g.rows, g.cols = g.rows[:0], g.cols[:0]
	g.rowCap, g.colCap = g.rowCap[:0], g.colCap[:0]
	g.prob.Groups = g.prob.Groups[:0]
	g.members = g.members[:0]
	g.obsRow, g.obsCls, g.obsN = g.obsRow[:0], g.obsCls[:0], g.obsN[:0]
	g.keys, g.obsKeys = g.keys[:0], g.obsKeys[:0]
}

func (g *grid) addRow(key, cap int64) {
	g.rows = append(g.rows, key)
	g.rowCap = append(g.rowCap, cap)
}

func (g *grid) addCol(key, cap int64) {
	g.cols = append(g.cols, key)
	g.colCap = append(g.colCap, cap)
}

// vars returns the number of live variables.
func (g *grid) vars() int { return len(g.rows) * len(g.cols) }

// rowOf returns the live position of row key, or -1.
func (g *grid) rowOf(key int64) int32 {
	if r, ok := slices.BinarySearch(g.rows, key); ok {
		return int32(r)
	}
	return -1
}

// group appends a sum constraint over the members added since mark.
func (g *grid) group(mark int, value int64, eq bool) {
	if len(g.members) == mark {
		return
	}
	g.prob.Groups = append(g.prob.Groups, bounds.Group{
		Vars: g.members[mark:len(g.members):len(g.members)], Value: value, Equality: eq,
	})
}

// all adds one group over every live pair (Eq. 9's call count).
func (g *grid) all(value int64, eq bool) {
	mark := len(g.members)
	for v := 0; v < g.vars(); v++ {
		g.members = append(g.members, v)
	}
	g.group(mark, value, eq)
}

// rowSums adds one group per live row over its live pairs, valued at the
// row's cap.
func (g *grid) rowSums(eq bool) {
	nc := len(g.cols)
	for r := range g.rows {
		mark := len(g.members)
		for c := 0; c < nc; c++ {
			g.members = append(g.members, r*nc+c)
		}
		g.group(mark, g.rowCap[r], eq)
	}
}

// colSums adds one group per live column over its live pairs, valued at
// the column's cap.
func (g *grid) colSums(eq bool) {
	nc := len(g.cols)
	for c := range g.cols {
		mark := len(g.members)
		for r := range g.rows {
			g.members = append(g.members, r*nc+c)
		}
		g.group(mark, g.colCap[c], eq)
	}
}

// observe records one observed OF counter: its live row (-1 for a dead
// row) and count. Its classes at each degree go to obsCls.
func (g *grid) observe(row int32, n int64) {
	g.obsRow = append(g.obsRow, row)
	g.obsN = append(g.obsN, n)
}

// ofSums adds the OF sum equalities of one degree: for every live row and
// every class holding a live column, the row's pairs whose column is in
// the class sum to the count observed for (row, class), zero when none
// was. colCls[c] is live column c's class in [0, nClass); the class of
// observation o at this degree is obsCls[o*stride+d]. A class without a
// live column forms no group: its pairs are all pinned at 0, and on a
// consistent profile so is its count.
func (g *grid) ofSums(nClass int, stride, d int) {
	if cap(g.remap) < nClass {
		g.remap = make([]int32, nClass)
	}
	remap := g.remap[:nClass]
	for i := range remap {
		remap[i] = -1
	}
	m := int32(0)
	for _, cl := range g.colCls {
		if cl >= 0 && remap[cl] < 0 {
			remap[cl] = m
			m++
		}
	}
	// Bucket the live columns by class, keeping column order.
	g.start = append(g.start[:0], make([]int32, m+1)...)
	for _, cl := range g.colCls {
		if cl >= 0 {
			g.start[remap[cl]+1]++
		}
	}
	for i := int32(1); i <= m; i++ {
		g.start[i] += g.start[i-1]
	}
	g.order = append(g.order[:0], make([]int32, g.start[m])...)
	g.fill = append(g.fill[:0], g.start[:m]...)
	for c, cl := range g.colCls {
		if cl >= 0 {
			lc := remap[cl]
			g.order[g.fill[lc]] = int32(c)
			g.fill[lc]++
		}
	}
	nr, nc := len(g.rows), len(g.cols)
	g.vals = append(g.vals[:0], make([]int64, nr*int(m))...)
	for o, r := range g.obsRow {
		cl := g.obsCls[o*stride+d]
		if r < 0 || cl < 0 || remap[cl] < 0 {
			continue
		}
		g.vals[int(r)*int(m)+int(remap[cl])] += g.obsN[o]
	}
	for r := 0; r < nr; r++ {
		for lc := int32(0); lc < m; lc++ {
			mark := len(g.members)
			for _, c := range g.order[g.start[lc]:g.start[lc+1]] {
				g.members = append(g.members, r*nc+int(c))
			}
			g.group(mark, g.vals[r*int(m)+int(lc)], true)
		}
	}
}

// solve caps every live pair at the lesser of its row's and column's caps,
// solves, and returns the Estimate over a grid of n pairs.
func (g *grid) solve(n int) (Estimate, error) {
	nr, nc := len(g.rows), len(g.cols)
	caps := g.prob.Caps[:0]
	for r := 0; r < nr; r++ {
		for c := 0; c < nc; c++ {
			caps = append(caps, minI64(g.rowCap[r], g.colCap[c]))
		}
	}
	g.prob.N, g.prob.Caps = nr*nc, caps
	res, err := bounds.Solve(&g.prob)
	if err != nil {
		return Estimate{}, err
	}
	keys := make([]int64, nr+nc)
	copy(keys, g.rows)
	copy(keys[nr:], g.cols)
	return Estimate{N: n, rows: keys[:nr:nr], cols: keys[nr:], res: res}, nil
}
