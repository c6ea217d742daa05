// Package bounds implements the paper's iterative frequency-bound
// propagation as a generic interval solver over sum constraints.
//
// The estimation equations of the paper all share one shape: a set of
// non-negative integer variables (interesting-path frequencies) related by
// group constraints "the sum over this set of variables equals (or is at
// most) this profiled value", plus per-variable caps. Upper bounds follow
// the paper's Equations 7/13/17 — the group value minus the lower bounds of
// the other members — and lower bounds follow Equations 8/14/18 — the group
// value minus the upper bounds of the other members, floored at zero. The
// bounds depend on each other, so the solver iterates to a fixpoint; upper
// bounds only decrease and lower bounds only increase, so termination is
// guaranteed, and a pass budget guards against pathological inputs.
package bounds

import (
	"fmt"
	"math"
)

// Inf is the sentinel for "no upper bound yet".
const Inf int64 = math.MaxInt64

// Group is one sum constraint over a set of variables.
type Group struct {
	// Vars are the variable indices in the group (need not be sorted;
	// duplicates are invalid).
	Vars []int
	// Value is the profiled sum.
	Value int64
	// Equality distinguishes Σ = Value from Σ ≤ Value. Inequality groups
	// contribute only to upper bounds; deriving a lower bound from them
	// would be unsound.
	Equality bool
}

// Problem is a full bound-estimation instance.
type Problem struct {
	// N is the number of variables.
	N int
	// Groups are the sum constraints.
	Groups []Group
	// Caps are optional per-variable upper bounds (the paper's
	// F_p − X_p / F_q − E_q / F_p / F_q candidates). Nil means no caps;
	// individual entries may be Inf.
	Caps []int64
}

// Result carries the solved bounds.
type Result struct {
	Lower, Upper []int64
	// Passes is the number of sweeps until the fixpoint.
	Passes int
}

// Definite returns the sum of lower bounds (the paper's definite flow).
func (r *Result) Definite() int64 {
	var s int64
	for _, v := range r.Lower {
		s += v
	}
	return s
}

// Potential returns the sum of upper bounds (the paper's potential flow).
func (r *Result) Potential() int64 {
	var s int64
	for _, v := range r.Upper {
		s += v
	}
	return s
}

// Exact returns how many variables have identical lower and upper bounds.
func (r *Result) Exact() int {
	n := 0
	for i := range r.Lower {
		if r.Lower[i] == r.Upper[i] {
			n++
		}
	}
	return n
}

// maxPasses bounds the fixpoint iteration. Each pass can only move integer
// bounds monotonically, so real instances converge in a handful of passes.
const maxPasses = 10000

// Solve computes the tightest bounds reachable by the paper's propagation
// rules. It returns an error for malformed problems (bad indices, negative
// values, duplicate membership within one group). Beyond its result it
// allocates nothing: validation stamps group membership into the upper-bound
// slice before the bounds are initialized.
func Solve(p *Problem) (*Result, error) {
	if p.N < 0 {
		return nil, fmt.Errorf("bounds: negative variable count %d", p.N)
	}
	buf := make([]int64, 2*p.N)
	lower, upper := buf[:p.N:p.N], buf[p.N:]
	if err := validate(p, upper); err != nil {
		return nil, err
	}
	for i := range upper {
		if p.Caps != nil {
			upper[i] = p.Caps[i]
		} else {
			upper[i] = Inf
		}
	}
	// A variable in an equality group can never exceed the group value.
	for _, g := range p.Groups {
		for _, v := range g.Vars {
			if g.Value < upper[v] {
				upper[v] = g.Value
			}
		}
	}

	res := &Result{Lower: lower, Upper: upper}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, g := range p.Groups {
			// Phase 1: tighten uppers from the current lowers.
			// Upper(v) := min(Upper(v), max(0, Value − Σ lower(others))).
			// Only a bound that moves counts as progress: on an
			// inconsistent profile the raw value can sit below an
			// upper bound that is already 0.
			var sumL int64
			for _, v := range g.Vars {
				sumL += lower[v]
			}
			for _, v := range g.Vars {
				u := g.Value - (sumL - lower[v])
				if u < 0 {
					u = 0
				}
				if u < upper[v] {
					upper[v] = u
					changed = true
				}
			}
			if !g.Equality {
				continue
			}
			// Phase 2: raise lowers from the (freshly tightened)
			// uppers. Lower(v) := max(Lower(v),
			// Value − Σ upper(others)), only possible when every
			// other member has a finite upper bound.
			var sumU int64
			unbounded := 0
			for _, v := range g.Vars {
				if upper[v] == Inf {
					unbounded++
				} else {
					sumU += upper[v]
				}
			}
			for _, v := range g.Vars {
				othersUnbounded := unbounded
				otherU := sumU
				if upper[v] == Inf {
					othersUnbounded--
				} else {
					otherU -= upper[v]
				}
				if othersUnbounded > 0 {
					continue
				}
				if l := g.Value - otherU; l > lower[v] {
					lower[v] = l
					changed = true
				}
			}
		}
		res.Passes = pass + 1
		if !changed {
			break
		}
	}

	// Sanity: the rules keep L ≤ U on consistent inputs; on inconsistent
	// profiles (impossible with correct collection) clamp rather than
	// return crossed intervals.
	for i := range lower {
		if upper[i] != Inf && lower[i] > upper[i] {
			lower[i] = upper[i]
		}
	}
	return res, nil
}

// validate checks p's caps and groups. mark, one slot per variable, records
// the last group (1-based) that listed each variable, so a duplicate within
// one group is a single comparison and no per-group set is built.
func validate(p *Problem, mark []int64) error {
	if p.Caps != nil && len(p.Caps) != p.N {
		return fmt.Errorf("bounds: %d caps for %d variables", len(p.Caps), p.N)
	}
	for i, c := range p.Caps {
		if c < 0 {
			return fmt.Errorf("bounds: negative cap %d at %d", c, i)
		}
	}
	for gi, g := range p.Groups {
		if g.Value < 0 {
			return fmt.Errorf("bounds: group %d has negative value %d", gi, g.Value)
		}
		stamp := int64(gi) + 1
		for _, v := range g.Vars {
			if v < 0 || v >= p.N {
				return fmt.Errorf("bounds: group %d references variable %d of %d", gi, v, p.N)
			}
			if mark[v] == stamp {
				return fmt.Errorf("bounds: group %d lists variable %d twice", gi, v)
			}
			mark[v] = stamp
		}
	}
	return nil
}
