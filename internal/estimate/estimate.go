// Package estimate derives lower and upper bounds on interesting-path
// frequencies from profiles, implementing the paper's Sections 2.2 and 3.2:
// BL-only estimation (degree -1) and overlapping-path estimation at any
// degree, for loops (two consecutive iterations) and procedure boundaries
// (Type I and Type II), all on top of the generic bound solver.
//
// Every problem is a grid of interesting pairs (first component, second
// component), and only pairs whose cap (Eqs. 5–6 and 11–12) is positive get
// a solver variable; see DESIGN.md §8.1 for why that changes no bound.
package estimate

import (
	"slices"

	"pathprof/internal/bounds"
)

// Mode selects the constraint set.
type Mode int

const (
	// Paper uses exactly the paper's candidates: profiled OF sum groups
	// (equalities), the call-count group, and the F/X/E caps of
	// Eqs. 5/6/11/12.
	Paper Mode = iota
	// Extended additionally uses row/column sum equalities where they
	// are provably sound (bottom-exit loops without inner loops,
	// single-target direct call sites) — the ablation DESIGN.md calls
	// out.
	Extended
)

// String names the mode as the CLIs' -mode flag spells it.
func (m Mode) String() string {
	if m == Extended {
		return "extended"
	}
	return "paper"
}

// Estimate is the solved bound set of one estimation problem, with the
// ground-truth alignment left to the caller. The problem is a grid of
// interesting pairs (row, column); what rows and columns stand for is up
// to the result type (LoopResult, InterResult). A pair has a solver
// variable only when its cap is positive: its row and its column are both
// live. Every other pair is pinned at [0, 0] and still counts in N, Exact,
// Definite and Potential.
type Estimate struct {
	// N is the number of interesting pairs in the grid, with or without a
	// variable.
	N int

	// rows and cols are the keys of the live rows and columns, ascending;
	// variable r*len(cols)+c is pair (rows[r], cols[c]).
	rows, cols []int64
	res        *bounds.Result
}

// Vars returns the number of pairs with a solver variable.
func (e *Estimate) Vars() int { return len(e.rows) * len(e.cols) }

// Pair returns the v-th pair with a variable (0 <= v < Vars()) and its
// bounds. Pairs come in row order, then column order, so iterating v
// visits them as a scan of the whole grid would, minus the pinned pairs.
func (e *Estimate) Pair(v int) (row, col, lo, hi int64) {
	nc := len(e.cols)
	return e.rows[v/nc], e.cols[v%nc], e.res.Lower[v], e.res.Upper[v]
}

// Bounds returns the bounds of pair (row, col): the solved interval for a
// pair with a variable, [0, 0] for any other.
func (e *Estimate) Bounds(row, col int64) (lo, hi int64) {
	r, ok := slices.BinarySearch(e.rows, row)
	if !ok {
		return 0, 0
	}
	c, ok := slices.BinarySearch(e.cols, col)
	if !ok {
		return 0, 0
	}
	v := r*len(e.cols) + c
	return e.res.Lower[v], e.res.Upper[v]
}

// Definite returns the sum of lower bounds.
func (e *Estimate) Definite() int64 { return e.res.Definite() }

// Potential returns the sum of upper bounds.
func (e *Estimate) Potential() int64 { return e.res.Potential() }

// Exact returns the number of pairs with equal bounds, the pinned ones
// included.
func (e *Estimate) Exact() int { return e.res.Exact() + e.N - e.Vars() }

// minI64 is a tiny helper (the caps are min-of-candidates everywhere).
func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
