// Package regvm is the register-machine execution engine: the pipeline's
// one fast engine, checked against the tree-walking reference interpreter
// (internal/interp with listener-dispatched probes). It compiles each
// program once per instrumentation plan to a compact register-based ISA
// with superinstruction fusion, emitting every function's blocks in source
// order.
//
// Three ideas carry the speed:
//
//   - Typed register files with compile-time slot assignment. Every operand
//     is resolved at compile time to a signed 32-bit register reference:
//     non-negative references index the current frame's register window
//     (one int64 register per local slot), negative references index the
//     machine's shared read-mostly slab holding the program's globals
//     followed by its interned constant pool. Instructions are a fixed 24
//     bytes (opcode, sub-opcode, three register references, one immediate),
//     so the hot dispatch loop stays in cache; binary operators are
//     flattened into per-operator opcodes so dispatch is a single switch.
//
//   - Superinstruction fusion. A fusion pass over the linearized blocks
//     merges the hottest adjacent pairs the engine's own profiles exposed:
//     the per-block step probe fuses into a leading assign or binary op
//     (StepMove, StepBin) or, for body-less blocks, straight into the
//     terminator (StepJump, StepBranch); edge probes whose work is fully
//     static fuse into a single charge+jump (ChargeJump), and when the edge
//     falls through to the next block the jump disappears entirely
//     (Charge). Edges with dynamic probe work (loop trackers,
//     interprocedural regions, backedge completions) execute in one
//     dispatch too: the whole sequence compiles to a single record-driven
//     Probe instruction, and probed branch terminators fuse the branch,
//     both edges' probe work, and the jump into one BranchProbe: one
//     dispatch for the branch and everything behind it, where a
//     dispatch per edge plus a trampoline jump would otherwise be paid.
//
//   - Batched counter charges and zero-alloc steady state. Consecutive
//     completions of the same Ball-Larus path, the same loop window, and
//     the same call edge accumulate in machine registers and flush through
//     profile.BulkStore once per key change (and finally at run end),
//     collapsing the hot loop's per-iteration store-interface calls.
//     All run state — frames, register stack, loop trackers, rings,
//     suffix lists, print scratch — lives in machine-owned slabs that
//     Reset reuses, so a pooled Machine executes with zero heap
//     allocations in steady state.
//
// The engine is semantics-identical to internal/interp by construction and
// by the differential oracle: step counts, base-op and probe-op accounting,
// counter increments, Print output, and error messages (which keep the
// "interp:" prefix so both engines stay byte-comparable) match the tree
// engine on the same program and seed.
package regvm

import (
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
)

// Opcodes. The computational core flattens ir.OpKind into one opcode per
// operator so dispatch is a single switch; the probe micro-ops compile one
// CFG edge's probe work into straight-line instructions.
const (
	opMove uint8 = iota
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	opXor
	opNot
	opNeg
	opLoad
	opStore
	opRand
	opPrint
	opFuncRef

	// opBad preserves the tree engine's runtime "unknown op" error for
	// binary operators outside the defined ir.OpKind range.
	opBad

	opStep
	opJump
	opBranch
	opCall
	opRet
	opRetVal
	opNoTerm

	// Superinstructions: the per-block step probe fused into the block's
	// first instruction or terminator.
	opStepMove
	opStepBin
	opStepLoad
	opStepJump
	opStepBranch

	// Edge-probe superinstructions: one CFG edge's whole probe sequence in
	// a single dispatch.
	opCharge          // static charges + BL register increment, fall-through
	opChargeJump      // static charges + BL register increment + jump
	opProbe           // record-driven probe (loop/inter trackers, backedge completion) + optional jump
	opBranchProbe     // branch + taken edge's charge or probe record + jump
	opStepBranchProbe // step + branch + taken edge's charge or probe record + jump
)

// opName maps fused opcodes to their documented mnemonics.
var fusedOps = []string{"StepMove", "StepBin", "StepLoad", "StepJump", "StepBranch", "Charge", "ChargeJump", "Probe", "BranchProbe"}

// Superinstructions returns the mnemonics of the fused opcodes the compiler
// emits, in documentation order. DESIGN.md §15's fusion-rule table is
// cross-checked against this list by internal/tools/docscheck.
func Superinstructions() []string { return append([]string(nil), fusedOps...) }

// inst is one 24-byte instruction. Field use by opcode:
//
//	opMove/opNot/opNeg      a=dst  b=src
//	binary ops              a=dst  b=x    c=y
//	opStepBin               a=dst  b=x    c=y      sub=ir.OpKind  imm=cost
//	opStepMove              a=dst  b=src  imm=cost
//	opStepLoad              a=dst  b=idx  c=array  imm=cost
//	opLoad                  a=dst  b=idx  imm=array
//	opStore                 b=idx  c=src  imm=array
//	opRand                  a=dst  b=bound
//	opPrint                 c=print-args index
//	opFuncRef               a=dst  b=func index (-1 unknown)  c=name index
//	opStep/opStepJump       b=target (jump only)  imm=cost
//	opJump                  b=target
//	opBranch/opStepBranch   a=cond b=then  c=else  imm=cost (fused only)
//	opCall                  c=call record index
//	opRetVal                a=value
//	opCharge/opChargeJump   a=blOps  c=loopOps  b=target (jump only)  imm=blInc
//	opProbe                 c=probe record index  b=target  sub=1 when jumping
//	opBranchProbe           a=cond  c=branch record index
//	opStepBranchProbe       a=cond  c=branch record index  imm=cost
type inst struct {
	op  uint8
	sub uint8
	a   int32
	b   int32
	c   int32
	imm int64
}

// probeAct body-action sub flags (probeAct.sub for actBody).
const (
	loopHasVal uint8 = 1 << iota
	loopPredTo
)

// probeAct kinds.
const (
	actBody uint8 = iota
	actExit
	actBroken
)

// probeAct is one loop-tracker transition within a probe record.
type probeAct struct {
	// kind selects the transition; sub carries the exit's tail bit
	// (actExit) or the body's loopHasVal|loopPredTo flags (actBody).
	kind uint8
	sub  uint8
	loop int32
	// live is the extra op charge a live (active, unfrozen) tracker pays on
	// a body step.
	live int32
	// val is the body step's route increment.
	val int64
}

// probeRec is one edge's complete probe work, executed in a single opProbe
// (or branch-arm) dispatch: static charges, loop-tracker transitions, the
// interprocedural region steps, and — on backedges — the path completion.
// Field order keeps the dispatch fast path's loads in the record's first
// cache line.
type probeRec struct {
	// bodyMask and touchMask are modulo-64 loop-index bitsets of the
	// record's actBody and actExit/actBroken acts. When no live tracker
	// intersects bodyMask, no active tracker intersects touchMask, the
	// interprocedural trackers are idle, and the record is not a backedge,
	// the whole record degenerates to its static charges and the dispatch
	// loop applies it inline without calling runProbe.
	bodyMask  uint64
	touchMask uint64
	blOps     int64
	loopOps   int64
	// blInc is the Ball-Larus register increment (non-backedges).
	blInc int64
	// exts indexes compiledFunc.exts (-1 = no interprocedural work).
	exts     int32
	backedge bool
	acts     []probeAct
	// beLoop is the backedge's own selected loop (-1 = none).
	beLoop   int32
	exitVal  int64
	entryVal int64
}

// branchArm is one side of a probed branch terminator: the jump target plus
// either an inline static charge (probe < 0) or a full probe record.
type branchArm struct {
	pc      int32
	probe   int32
	blOps   int32
	loopOps int32
	blInc   int64
}

// branchRec holds a probed branch's two arms.
type branchRec struct {
	then branchArm
	els  branchArm
}

// extAct is one interprocedural region's step on one edge.
type extAct struct {
	statOps int64
	liveOps int64
	hasVal  bool
	val     int64
	predTo  bool
}

// extsRec carries one edge's Type I entry action and per-call-site Type II
// suffix actions (nil entries = unselected sites).
type extsRec struct {
	entry extAct
	sites []*extAct
}

// callRec carries everything a call terminator needs.
type callRec struct {
	indirect   bool
	siteOn     bool
	hasDst     bool
	callee     int32
	site       int32
	dst        int32
	target     int32 // indirect: callable id reference
	resumePC   int32
	args       []int32
	calleeName string
}

// compiledFunc is one function's code plus the side tables and per-region
// tracker constants its probes reference.
type compiledFunc struct {
	fn      *ir.Func
	idx     int
	numRegs int
	code    []inst
	// blkOf maps each pc to its source block id for error context.
	blkOf []int32

	prints   [][]int32
	names    []string
	calls    []*callRec
	probes   []probeRec
	branches []branchRec
	exts     []extsRec

	numLoops int
	// maskExact holds when every loop index fits the 64-bit tracker masks,
	// so frame mask bits can be cleared on deactivate/freeze; beyond 64
	// loops the masks stay sticky over-approximations (set-only), which is
	// still sound — a stale bit only forces the slow path.
	maskExact  bool
	iters      int
	loopFreeze []int
	loopRoot   []int

	hasEntry     bool
	entryFreeze  int
	entryRoot    int
	suffixFreeze []int
	suffixRoot   []int
}

// FusionStats counts the superinstructions the fusion pass emitted for one
// compiled program (static counts, not dynamic executions).
type FusionStats struct {
	StepMove, StepBin, StepLoad, StepJump, StepBranch int
	Charge, ChargeJump                                int
	// Probe counts record-driven single-dispatch probe instructions;
	// BranchProbe counts branches fused with their edges' probe work
	// (step-fused or not).
	Probe, BranchProbe int
	// FallThrough counts edges whose jump was eliminated entirely because
	// the successor block follows in the instruction stream.
	FallThrough int
}

// Program is a compiled program, optionally fused with one instrumentation
// plan. Like a Plan it is immutable after Compile and shareable across any
// number of machines.
type Program struct {
	IR *ir.Program
	// Plan is the fused instrumentation plan (nil = plain execution).
	Plan  *instrument.Plan
	funcs []*compiledFunc
	main  int

	// shared-slab layout: globals occupy [0, numGlobals), the interned
	// constant pool [numGlobals, numGlobals+len(consts)).
	numGlobals int
	consts     []int64

	// Fusion reports the fusion pass's superinstruction counts.
	Fusion FusionStats
}
