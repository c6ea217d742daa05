// Package apps implements the optimization analyses the paper's
// introduction motivates, on top of the profiling library:
//
//   - cross-backedge redundancy (after Bodik/Gupta/Soffa's complete
//     redundancy removal and load-reuse analysis): expressions computed in
//     one loop iteration and provably recomputed unchanged in the next,
//     weighted by the interesting-path lower bounds; and
//   - interprocedural branch correlation (after Bodik/Gupta/Soffa's
//     interprocedural conditional branch elimination): callee branches whose
//     outcome is determined by the caller-side path into the call.
//
// Both consume only guaranteed (lower-bound) frequencies, so everything they
// report is a sound optimization opportunity — which is exactly why the
// paper's tighter bounds matter: with BL-only profiles most opportunities
// cannot be proven.
package apps

import (
	"fmt"
	"sort"

	"pathprof/internal/cfg"
	"pathprof/internal/estimate"
	"pathprof/internal/ir"
	"pathprof/internal/profile"
)

// exprKey identifies a pure computation for availability analysis.
// Operands are identified by location, so two lexically identical
// computations share a key only when they read the same slots.
type exprKey struct {
	kind string // "bin", "neg", "not", "load"
	op   ir.OpKind
	a, b opKey
	arr  int
}

// opKey identifies an operand's source location.
type opKey struct {
	kind  ir.OperandKind
	index int
	val   int64
}

func keyOf(o ir.Operand) opKey {
	if o.Kind == ir.Const {
		return opKey{kind: ir.Const, val: o.Val}
	}
	return opKey{kind: o.Kind, index: o.Index}
}

// avail is an available-expression set with kill tracking.
type avail struct {
	exprs map[exprKey]bool
}

func newAvail() *avail { return &avail{exprs: map[exprKey]bool{}} }

func (a *avail) clone() *avail {
	c := newAvail()
	for k := range a.exprs {
		c.exprs[k] = true
	}
	return c
}

// killLoc removes expressions reading the given location.
func (a *avail) killLoc(k opKey) {
	for e := range a.exprs {
		if e.a == k || e.b == k {
			delete(a.exprs, e)
		}
	}
}

// killArray removes loads from the given array (-1: all arrays).
func (a *avail) killArray(arr int) {
	for e := range a.exprs {
		if e.kind == "load" && (arr < 0 || e.arr == arr) {
			delete(a.exprs, e)
		}
	}
}

// killGlobals removes expressions reading any global (after calls: the
// callee may write any global).
func (a *avail) killGlobals() {
	for e := range a.exprs {
		if e.a.kind == ir.Global || e.b.kind == ir.Global {
			delete(a.exprs, e)
		}
	}
}

// exprOf classifies an instruction as a pure computation (ok=false for
// impure or non-computing instructions).
func exprOf(in ir.Instr) (exprKey, ir.Dest, bool) {
	switch in := in.(type) {
	case ir.BinOp:
		return exprKey{kind: "bin", op: in.Op, a: keyOf(in.A), b: keyOf(in.B)}, in.Dst, true
	case ir.Neg:
		return exprKey{kind: "neg", a: keyOf(in.Src)}, in.Dst, true
	case ir.Not:
		return exprKey{kind: "not", a: keyOf(in.Src)}, in.Dst, true
	case ir.LoadIdx:
		return exprKey{kind: "load", arr: in.Array, a: keyOf(in.Idx)}, in.Dst, true
	default:
		return exprKey{}, ir.Dest{}, false
	}
}

// step processes one instruction: records the computed expression (if pure)
// and applies its kills. When count is non-nil and the expression was
// already available, *count is incremented (a redundant recomputation).
func (a *avail) step(in ir.Instr, count *int) {
	if e, dst, ok := exprOf(in); ok {
		if count != nil && a.exprs[e] {
			*count++
		}
		// The destination kills everything reading it (including,
		// conservatively, the new expression itself when dst is an
		// operand).
		a.killLoc(opKey{kind: dst.Kind, index: dst.Index})
		if e.a != (opKey{kind: dst.Kind, index: dst.Index}) && e.b != (opKey{kind: dst.Kind, index: dst.Index}) {
			a.exprs[e] = true
		}
		return
	}
	switch in := in.(type) {
	case ir.Assign:
		a.killLoc(opKey{kind: in.Dst.Kind, index: in.Dst.Index})
	case ir.StoreIdx:
		a.killArray(in.Array)
	case ir.Rand:
		a.killLoc(opKey{kind: in.Dst.Kind, index: in.Dst.Index})
	case ir.FuncRef:
		a.killLoc(opKey{kind: in.Dst.Kind, index: in.Dst.Index})
	case ir.Print:
		// no kills
	}
}

// stepTerm applies a terminator's effects.
func (a *avail) stepTerm(t ir.Terminator) {
	if c, ok := t.(ir.Call); ok {
		// The callee may write globals and arrays; locals are safe.
		a.killGlobals()
		a.killArray(-1)
		if c.HasDst {
			a.killLoc(opKey{kind: c.Dst.Kind, index: c.Dst.Index})
		}
	}
}

// walkSeq runs the availability machine over a block sequence; when count
// is non-nil, redundant pure computations are tallied.
func walkSeq(fn *ir.Func, a *avail, seq []cfg.NodeID, count *int) {
	for _, b := range seq {
		blk := fn.Blocks[int(b)]
		for _, in := range blk.Body {
			a.step(in, count)
		}
		a.stepTerm(blk.Term)
	}
}

// RedundantInstrs counts the pure computations of iteration sequence j that
// are provably redundant when iteration sequence i ran immediately before
// it: computed in i, not killed by the remainder of i nor by j's prefix, and
// recomputed in j.
func RedundantInstrs(fn *ir.Func, seqI, seqJ []cfg.NodeID) int {
	a := newAvail()
	walkSeq(fn, a, seqI, nil)
	n := 0
	walkSeq(fn, a, seqJ, &n)
	return n
}

// LoopRedundancy is the report for one loop.
type LoopRedundancy struct {
	Func string
	Head string
	// ProvableSavings is Σ over pairs of lowerBound(i,j) ×
	// redundantInstrs(i,j): dynamic instruction executions that a
	// cross-iteration PRE is guaranteed to remove.
	ProvableSavings int64
	// Pairs lists the contributing pairs, hottest first.
	Pairs []PairRedundancy
}

// PairRedundancy is one (i ! j) contribution.
type PairRedundancy struct {
	I, J       int
	Redundant  int
	LowerBound int64
}

// AnalyzeLoopRedundancy computes the provable cross-backedge redundancy of
// one loop from its estimated pair bounds.
func AnalyzeLoopRedundancy(fi *profile.FuncInfo, li *profile.LoopInfo, res *estimate.LoopResult) *LoopRedundancy {
	out := &LoopRedundancy{
		Func: fi.Fn.Name,
		Head: fi.G.Label(li.Loop.Head),
	}
	for v := 0; v < res.Vars(); v++ {
		i, j, lb, _ := res.Pair(v)
		if lb <= 0 {
			continue
		}
		red := RedundantInstrs(fi.Fn, li.LP.Seqs[i], li.LP.Seqs[j])
		if red == 0 {
			continue
		}
		out.ProvableSavings += lb * int64(red)
		out.Pairs = append(out.Pairs, PairRedundancy{I: int(i), J: int(j), Redundant: red, LowerBound: lb})
	}
	sort.Slice(out.Pairs, func(a, b int) bool {
		sa := out.Pairs[a].LowerBound * int64(out.Pairs[a].Redundant)
		sb := out.Pairs[b].LowerBound * int64(out.Pairs[b].Redundant)
		if sa != sb {
			return sa > sb
		}
		if out.Pairs[a].I != out.Pairs[b].I {
			return out.Pairs[a].I < out.Pairs[b].I
		}
		return out.Pairs[a].J < out.Pairs[b].J
	})
	return out
}

// FormatLoopRedundancy renders one loop's report.
func FormatLoopRedundancy(r *LoopRedundancy) string {
	s := fmt.Sprintf("%s loop@%s: %d provably removable instruction executions\n",
		r.Func, r.Head, r.ProvableSavings)
	for _, p := range r.Pairs {
		s += fmt.Sprintf("  pair (%d ! %d): %d redundant instrs x >= %d repeats\n",
			p.I, p.J, p.Redundant, p.LowerBound)
	}
	return s
}
