package regvm

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"pathprof/internal/interp"
	"pathprof/internal/ir"
	"pathprof/internal/obs"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
)

const (
	defaultMaxSteps = int64(200_000_000)
	defaultMaxDepth = 4096
)

// trk is the run-time state of one loop tracker: the paper's `ol` route
// register (accum) and, beside it, the base register `ro` — the BL path
// that ended at the backedge the active crossing started from.
type trk struct {
	active bool
	frozen bool
	broken bool
	accum  int64
	preds  int
	base   int64
}

// suffix is one in-flight Type II region: the call site it resumes after,
// the callee and the callee's last path id, and at, the BL register value
// standing on the call-site block (the completed id minus at keys the
// site's route table).
type suffix struct {
	site   int
	callee int
	q      int64
	at     int64
}

// frame is one procedure activation. Frames live in a machine-owned value
// slab; registers live in the machine's register stack at [base,
// base+numRegs). Each slab slot keeps its loops/suffixes capacity
// across reuse, so re-activation allocates nothing once warm.
type frame struct {
	fn    *compiledFunc
	base  int32
	depth int
	// call is the in-progress call terminator while a callee runs.
	call *callRec

	// Ball-Larus walker state (r is cached in a dispatch-loop local while
	// the frame is on top).
	r      int64
	lastID int64

	// Loop trackers. activeMask and liveMask summarize the tracker states
	// as modulo-64 loop-index bitsets (active, and active-and-unfrozen) so
	// the dispatch loop can prove a probe record inert without walking its
	// acts. Beyond 64 loops the masks are sticky over-approximations
	// (set-only).
	loops      []trk
	activeMask uint64
	liveMask   uint64

	// Interprocedural regions, resolved when the frame's path completes:
	// entryOn marks the Type I region armed by the call that pushed the
	// frame (with the caller, site and prefix register it keys on), and
	// suffixes lists the Type II regions armed by returns into the frame.
	entryOn     bool
	entryCaller int
	entrySite   int
	entryPrefix int64
	suffixes    []suffix
}

// Machine executes one compiled program. Its public knobs and counters
// mirror interp.Machine so callers can switch engines without translation. A
// Machine is single-goroutine; Reset re-arms the same slabs for the next
// run, so a pooled Machine executes with zero steady-state allocations.
type Machine struct {
	prog *Program
	// Out receives Print output (defaults to io.Discard).
	Out io.Writer
	// MaxSteps bounds executed blocks (0 = default limit); MaxDepth
	// bounds call depth.
	MaxSteps int64
	MaxDepth int

	// Steps counts executed blocks; BaseOps accumulates block costs.
	Steps   int64
	BaseOps int64
	// BLOps, LoopOps, InterOps tally probe operations by category,
	// identically to instrument.Runtime.
	BLOps, LoopOps, InterOps int64

	rng   uint64
	store profile.CounterStore
	bulk  profile.BulkStore

	// shared is the read-mostly operand slab: globals in [0, numGlobals),
	// the interned constant pool after them. Reset zeroes only the global
	// section.
	shared []int64
	// arrSlab backs every program array contiguously (one memclr on
	// Reset); arrays holds the per-array views into it.
	arrSlab []int64
	arrays  [][]int64

	// regs is the register stack; frames is the activation slab.
	regs   []int64
	top    int32
	frames []frame
	sp     int

	printBuf []byte

	// Pending batched counter charges: consecutive completions of the
	// same key accumulate here and flush through bulk on key change.
	pendBLN     uint64
	pendBLFn    int
	pendBLPath  int64
	pendLoopN   uint64
	pendLoopKey profile.LoopKey
	pendCallN   uint64
	pendCallKey profile.CallKey
}

// NewMachine creates a machine for p with the given deterministic RNG seed
// (the same seed transformation as interp.New, so all engines draw
// identical random sequences).
func NewMachine(p *Program, seed uint64) *Machine {
	m := &Machine{
		prog:     p,
		Out:      io.Discard,
		MaxSteps: defaultMaxSteps,
		MaxDepth: defaultMaxDepth,
		rng:      seed*2685821657736338717 + 1442695040888963407,
	}
	m.shared = make([]int64, p.numGlobals+len(p.consts))
	copy(m.shared[p.numGlobals:], p.consts)
	total := int64(0)
	for _, a := range p.IR.Arrays {
		total += a.Size
	}
	m.arrSlab = make([]int64, total)
	m.arrays = make([][]int64, len(p.IR.Arrays))
	off := int64(0)
	for i, a := range p.IR.Arrays {
		m.arrays[i] = m.arrSlab[off : off+a.Size : off+a.Size]
		off += a.Size
	}
	return m
}

// Reset re-arms the machine for a fresh run with a new seed, reusing every
// slab: globals and arrays are zeroed (the constant pool is preserved),
// limits and output return to their defaults, and all counters clear.
func (m *Machine) Reset(seed uint64) {
	for i := 0; i < m.prog.numGlobals; i++ {
		m.shared[i] = 0
	}
	for i := range m.arrSlab {
		m.arrSlab[i] = 0
	}
	m.Out = io.Discard
	m.MaxSteps = defaultMaxSteps
	m.MaxDepth = defaultMaxDepth
	m.Steps, m.BaseOps = 0, 0
	m.BLOps, m.LoopOps, m.InterOps = 0, 0, 0
	m.rng = seed*2685821657736338717 + 1442695040888963407
	m.store, m.bulk = nil, nil
	m.top, m.sp = 0, 0
	m.pendBLN, m.pendLoopN, m.pendCallN = 0, 0, 0
}

// Rand returns the next deterministic pseudo-random value in [0, bound)
// (xorshift64*; bound <= 0 yields 0).
func (m *Machine) Rand(bound int64) int64 {
	if bound <= 0 {
		return 0
	}
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	v := m.rng * 2685821657736338717
	return int64(v % uint64(bound))
}

// Report packages the run's probe-op tallies against its base-op count.
func (m *Machine) Report() overhead.Report {
	return overhead.Report{BaseOps: m.BaseOps, BLOps: m.BLOps, LoopOps: m.LoopOps, InterOps: m.InterOps}
}

// Counters materializes the run's counters (nil for uninstrumented runs).
func (m *Machine) Counters() *profile.Counters {
	if m.store == nil {
		return nil
	}
	m.flush()
	return m.store.Counters()
}

var (
	errDivZero = errors.New("division by zero")
	errModZero = errors.New("modulo by zero")
)

func (m *Machine) errAt(fr *frame, pc int32, err error) error {
	fn := fr.fn
	return fmt.Errorf("interp: %s.%s: %w", fn.fn.Name, fn.fn.Blocks[fn.blkOf[pc]].Label, err)
}

// ld reads one register reference: non-negative into the frame window,
// negative into the shared globals+constants slab.
func ld(regs, shared []int64, ref int32) int64 {
	if ref >= 0 {
		return regs[ref]
	}
	return shared[^ref]
}

// st writes one register reference (never a constant: the compiler only
// produces local and global destinations).
func st(regs, shared []int64, ref int32, v int64) {
	if ref >= 0 {
		regs[ref] = v
		return
	}
	shared[^ref] = v
}

// pushFrame activates cf on top of the frame and register stacks, reusing
// slab capacity from earlier activations. The returned pointer is valid
// until the next push; callers must re-take pointers to deeper frames.
func (m *Machine) pushFrame(cf *compiledFunc, depth int) *frame {
	if m.sp == len(m.frames) {
		m.frames = append(m.frames, frame{})
	}
	fr := &m.frames[m.sp]
	m.sp++
	fr.fn = cf
	fr.base = m.top
	fr.depth = depth
	fr.call = nil
	need := int(m.top) + cf.numRegs
	if need > cap(m.regs) {
		grown := make([]int64, need, 2*need+64)
		copy(grown, m.regs[:m.top])
		m.regs = grown
	} else {
		m.regs = m.regs[:need]
	}
	w := m.regs[m.top:need]
	for i := range w {
		w[i] = 0
	}
	m.top = int32(need)
	fr.r, fr.lastID = 0, 0
	fr.entryOn = false
	fr.activeMask, fr.liveMask = 0, 0
	if cap(fr.loops) >= cf.numLoops {
		fr.loops = fr.loops[:cf.numLoops]
		for i := range fr.loops {
			fr.loops[i] = trk{}
		}
	} else {
		fr.loops = make([]trk, cf.numLoops)
	}
	fr.suffixes = fr.suffixes[:0]
	return fr
}

// Run executes main to completion, writing counters through store when the
// program was compiled with a plan (nil store = a fresh nested store,
// readable through Counters afterwards).
func (m *Machine) Run(store profile.CounterStore) error {
	if m.prog.main < 0 {
		return fmt.Errorf("interp: no main")
	}
	if m.prog.Plan != nil {
		if store == nil {
			store = profile.NewNestedStore(len(m.prog.Plan.Info.Funcs))
		}
		m.store = store
		m.bulk, _ = store.(profile.BulkStore)
	}
	err := m.run()
	m.flush()
	return err
}

func (m *Machine) run() error {
	fr := m.pushFrame(m.prog.funcs[m.prog.main], 0)
	code := fr.fn.code
	regs := m.regs[fr.base:m.top]
	shared := m.shared
	pc := int32(0)

	// The hottest mutable state lives in locals: the step/base-op and
	// probe-op tallies and the current frame's Ball-Larus register. The
	// locals are authoritative; helpers that read or charge m.BLOps /
	// m.LoopOps (completePath, crossLoop) get an explicit spill/reload.
	steps, maxSteps := m.Steps, m.MaxSteps
	baseOps := m.BaseOps
	blOps, loopOps := m.BLOps, m.LoopOps
	var r int64
	defer func() {
		m.Steps, m.BaseOps = steps, baseOps
		m.BLOps, m.LoopOps = blOps, loopOps
	}()

	for {
		in := &code[pc]
		switch in.op {
		case opStep:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			pc++

		case opStepMove:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			st(regs, shared, in.a, ld(regs, shared, in.b))
			pc++

		case opStepBin:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			a, b := ld(regs, shared, in.b), ld(regs, shared, in.c)
			var v int64
			switch ir.OpKind(in.sub) {
			case ir.OpAdd:
				v = a + b
			case ir.OpSub:
				v = a - b
			case ir.OpMul:
				v = a * b
			case ir.OpDiv:
				if b == 0 {
					return m.errAt(fr, pc, errDivZero)
				}
				v = a / b
			case ir.OpMod:
				if b == 0 {
					return m.errAt(fr, pc, errModZero)
				}
				v = a % b
			case ir.OpEq:
				v = b2i(a == b)
			case ir.OpNe:
				v = b2i(a != b)
			case ir.OpLt:
				v = b2i(a < b)
			case ir.OpLe:
				v = b2i(a <= b)
			case ir.OpGt:
				v = b2i(a > b)
			case ir.OpGe:
				v = b2i(a >= b)
			case ir.OpAnd:
				v = a & b
			case ir.OpOr:
				v = a | b
			default: // ir.OpXor; the compiler rejects anything wider
				v = a ^ b
			}
			st(regs, shared, in.a, v)
			pc++

		case opStepLoad:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			idx := ld(regs, shared, in.b)
			arr := m.arrays[in.c]
			if idx < 0 || idx >= int64(len(arr)) {
				return m.errAt(fr, pc, fmt.Errorf("index %d out of range [0,%d)", idx, len(arr)))
			}
			st(regs, shared, in.a, arr[idx])
			pc++

		case opMove:
			st(regs, shared, in.a, ld(regs, shared, in.b))
			pc++

		case opAdd:
			st(regs, shared, in.a, ld(regs, shared, in.b)+ld(regs, shared, in.c))
			pc++
		case opSub:
			st(regs, shared, in.a, ld(regs, shared, in.b)-ld(regs, shared, in.c))
			pc++
		case opMul:
			st(regs, shared, in.a, ld(regs, shared, in.b)*ld(regs, shared, in.c))
			pc++
		case opDiv:
			b := ld(regs, shared, in.c)
			if b == 0 {
				return m.errAt(fr, pc, errDivZero)
			}
			st(regs, shared, in.a, ld(regs, shared, in.b)/b)
			pc++
		case opMod:
			b := ld(regs, shared, in.c)
			if b == 0 {
				return m.errAt(fr, pc, errModZero)
			}
			st(regs, shared, in.a, ld(regs, shared, in.b)%b)
			pc++
		case opEq:
			st(regs, shared, in.a, b2i(ld(regs, shared, in.b) == ld(regs, shared, in.c)))
			pc++
		case opNe:
			st(regs, shared, in.a, b2i(ld(regs, shared, in.b) != ld(regs, shared, in.c)))
			pc++
		case opLt:
			st(regs, shared, in.a, b2i(ld(regs, shared, in.b) < ld(regs, shared, in.c)))
			pc++
		case opLe:
			st(regs, shared, in.a, b2i(ld(regs, shared, in.b) <= ld(regs, shared, in.c)))
			pc++
		case opGt:
			st(regs, shared, in.a, b2i(ld(regs, shared, in.b) > ld(regs, shared, in.c)))
			pc++
		case opGe:
			st(regs, shared, in.a, b2i(ld(regs, shared, in.b) >= ld(regs, shared, in.c)))
			pc++
		case opAnd:
			st(regs, shared, in.a, ld(regs, shared, in.b)&ld(regs, shared, in.c))
			pc++
		case opOr:
			st(regs, shared, in.a, ld(regs, shared, in.b)|ld(regs, shared, in.c))
			pc++
		case opXor:
			st(regs, shared, in.a, ld(regs, shared, in.b)^ld(regs, shared, in.c))
			pc++

		case opNot:
			if ld(regs, shared, in.b) == 0 {
				st(regs, shared, in.a, 1)
			} else {
				st(regs, shared, in.a, 0)
			}
			pc++

		case opNeg:
			st(regs, shared, in.a, -ld(regs, shared, in.b))
			pc++

		case opBad:
			return m.errAt(fr, pc, fmt.Errorf("unknown op %v", ir.OpKind(in.sub)))

		case opLoad:
			idx := ld(regs, shared, in.b)
			arr := m.arrays[in.imm]
			if idx < 0 || idx >= int64(len(arr)) {
				return m.errAt(fr, pc, fmt.Errorf("index %d out of range [0,%d)", idx, len(arr)))
			}
			st(regs, shared, in.a, arr[idx])
			pc++

		case opStore:
			idx := ld(regs, shared, in.b)
			v := ld(regs, shared, in.c)
			arr := m.arrays[in.imm]
			if idx < 0 || idx >= int64(len(arr)) {
				return m.errAt(fr, pc, fmt.Errorf("index %d out of range [0,%d)", idx, len(arr)))
			}
			arr[idx] = v
			pc++

		case opRand:
			st(regs, shared, in.a, m.Rand(ld(regs, shared, in.b)))
			pc++

		case opPrint:
			args := fr.fn.prints[in.c]
			buf := m.printBuf[:0]
			for i, ref := range args {
				if i > 0 {
					buf = append(buf, ' ')
				}
				buf = strconv.AppendInt(buf, ld(regs, shared, ref), 10)
			}
			buf = append(buf, '\n')
			m.printBuf = buf
			m.Out.Write(buf)
			pc++

		case opFuncRef:
			if in.b < 0 {
				return m.errAt(fr, pc, fmt.Errorf("funcref to unknown %q", fr.fn.names[in.c]))
			}
			st(regs, shared, in.a, int64(in.b))
			pc++

		case opJump:
			pc = in.b

		case opStepJump:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			pc = in.b

		case opBranch:
			if ld(regs, shared, in.a) != 0 {
				pc = in.b
			} else {
				pc = in.c
			}

		case opStepBranch:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			if ld(regs, shared, in.a) != 0 {
				pc = in.b
			} else {
				pc = in.c
			}

		case opCharge:
			blOps += int64(in.a)
			loopOps += int64(in.c)
			r += in.imm
			pc++

		case opChargeJump:
			blOps += int64(in.a)
			loopOps += int64(in.c)
			r += in.imm
			pc = in.b

		case opProbe:
			rec := &fr.fn.probes[in.c]
			// Inert-record fast path: no live tracker can see this
			// record's body acts and no active tracker its exit/broken
			// acts — the record is exactly its static charges.
			if fr.liveMask&rec.bodyMask == 0 && fr.activeMask&rec.touchMask == 0 && !rec.backedge {
				blOps += rec.blOps
				loopOps += rec.loopOps
				r += rec.blInc
			} else {
				r, blOps, loopOps = m.runProbe(fr, rec, r, blOps, loopOps)
			}
			if in.sub != 0 {
				pc = in.b
			} else {
				pc++
			}

		case opBranchProbe:
			br := &fr.fn.branches[in.c]
			arm := &br.then
			if ld(regs, shared, in.a) == 0 {
				arm = &br.els
			}
			if arm.probe >= 0 {
				rec := &fr.fn.probes[arm.probe]
				if fr.liveMask&rec.bodyMask == 0 && fr.activeMask&rec.touchMask == 0 && !rec.backedge {
					blOps += rec.blOps
					loopOps += rec.loopOps
					r += rec.blInc
				} else {
					r, blOps, loopOps = m.runProbe(fr, rec, r, blOps, loopOps)
				}
			} else {
				blOps += int64(arm.blOps)
				loopOps += int64(arm.loopOps)
				r += arm.blInc
			}
			pc = arm.pc

		case opStepBranchProbe:
			if steps >= maxSteps {
				return interp.ErrStepLimit
			}
			steps++
			baseOps += in.imm
			br := &fr.fn.branches[in.c]
			arm := &br.then
			if ld(regs, shared, in.a) == 0 {
				arm = &br.els
			}
			if arm.probe >= 0 {
				rec := &fr.fn.probes[arm.probe]
				if fr.liveMask&rec.bodyMask == 0 && fr.activeMask&rec.touchMask == 0 && !rec.backedge {
					blOps += rec.blOps
					loopOps += rec.loopOps
					r += rec.blInc
				} else {
					r, blOps, loopOps = m.runProbe(fr, rec, r, blOps, loopOps)
				}
			} else {
				blOps += int64(arm.blOps)
				loopOps += int64(arm.loopOps)
				r += arm.blInc
			}
			pc = arm.pc

		case opCall:
			rec := fr.fn.calls[in.c]
			var callee *compiledFunc
			if rec.indirect {
				v := ld(regs, shared, rec.target)
				if v < 0 || v >= int64(len(m.prog.funcs)) {
					return m.errAt(fr, pc, fmt.Errorf("indirect call to invalid callable id %d", v))
				}
				callee = m.prog.funcs[v]
			} else {
				if rec.callee < 0 {
					return m.errAt(fr, pc, fmt.Errorf("call to unknown %q", rec.calleeName))
				}
				callee = m.prog.funcs[rec.callee]
			}
			if fr.depth+1 >= m.MaxDepth {
				return fmt.Errorf("interp: call depth limit at %s", callee.fn.Name)
			}
			if len(rec.args) != callee.fn.NumParams {
				return fmt.Errorf("interp: call %s with %d args, want %d", callee.fn.Name, len(rec.args), callee.fn.NumParams)
			}
			fr.call = rec
			fr.r = r
			nf := m.pushFrame(callee, fr.depth+1)
			fr = &m.frames[m.sp-2] // pushFrame may move the frame slab
			// The stale caller window still holds the right values even if
			// pushFrame grew the register stack, so reads through it are
			// safe; writes go through m.regs.
			for i, a := range rec.args {
				m.regs[int(nf.base)+i] = ld(regs, shared, a)
			}
			if m.store != nil {
				m.incCall(profile.CallKey{Caller: fr.fn.idx, Site: int(rec.site), Callee: callee.idx})
				if rec.siteOn {
					m.InterOps += overhead.CallProbeOp
					// Arm the callee-entry (Type I) region; its route
					// resolves when the callee's first path completes.
					// callee.entry is non-nil whenever siteOn holds (both
					// require Interproc && K >= 0).
					nf.entryOn = true
					nf.entryCaller = fr.fn.idx
					nf.entrySite = int(rec.site)
					nf.entryPrefix = r
					m.InterOps += 2 * overhead.RegOp // func id store + prefix save
				}
			}
			fr = nf
			code = fr.fn.code
			regs = m.regs[fr.base:m.top]
			r = 0
			pc = 0

		case opRet, opRetVal:
			var rv int64
			if in.op == opRetVal {
				rv = ld(regs, shared, in.a)
			}
			if m.store != nil {
				// Exit completion: the walker stands at the exit
				// block, so the completed path id is r itself.
				m.BLOps = blOps
				m.completePath(fr, r)
				blOps = m.BLOps
			}
			m.top = fr.base
			m.regs = m.regs[:m.top]
			m.sp--
			if m.sp == 0 {
				if obs.DebugEnabled() {
					obs.Logger().Debug("regvm.run",
						"steps", steps, "base_ops", baseOps,
						"probe_ops", m.BLOps+m.LoopOps+m.InterOps)
				}
				return nil
			}
			calleeIdx := fr.fn.idx
			calleeLast := fr.lastID
			fr = &m.frames[m.sp-1]
			rec := fr.call
			code = fr.fn.code
			regs = m.regs[fr.base:m.top]
			r = fr.r
			if rec.hasDst {
				st(regs, shared, rec.dst, rv)
			}
			if m.store != nil && rec.siteOn {
				// Arm the caller-suffix (Type II) region before the resume
				// edge fires, so a resume backedge completes it — the tree
				// engine's OnReturn-then-OnEdge ordering. Its route, the
				// resume edge's step included, resolves at completion.
				fr.suffixes = append(fr.suffixes, suffix{
					site:   int(rec.site),
					callee: calleeIdx,
					q:      calleeLast,
					at:     r,
				})
				m.InterOps += 2 * overhead.RegOp // arm ro/ol for the suffix
			}
			pc = rec.resumePC

		case opNoTerm:
			return fmt.Errorf("interp: block %s.%s has no terminator", fr.fn.fn.Name, fr.fn.fn.Blocks[fr.fn.blkOf[pc]].Label)
		}
	}
}

// runProbe executes one probe record: static charges, the loop-tracker
// transitions, and — on backedges — the Ball-Larus path completion and the
// loop's crossing. The dispatch loop's r/blOps/loopOps locals thread
// through as arguments and return values so the whole record costs one
// call.
func (m *Machine) runProbe(fr *frame, rec *probeRec, r, blOps, loopOps int64) (int64, int64, int64) {
	blOps += rec.blOps
	loopOps += rec.loopOps
	for i := range rec.acts {
		a := &rec.acts[i]
		// The mask bit gates the tracker load: a dead act costs one shift
		// and test. The inner tracker checks stay for the sticky-mask
		// (> 64 loops) over-approximation.
		bit := uint64(1) << uint(int(a.loop)&63)
		switch a.kind {
		case actBody:
			if fr.liveMask&bit != 0 {
				t := &fr.loops[a.loop]
				if t.active && !t.frozen {
					loopOps += int64(a.live)
					if a.sub&loopHasVal == 0 {
						t.frozen = true
						m.freezeMask(fr, int(a.loop))
					} else {
						t.accum += a.val
						if a.sub&loopPredTo != 0 {
							t.preds++
							if t.preds >= fr.fn.loopFreeze[a.loop] {
								t.frozen = true
								m.freezeMask(fr, int(a.loop))
							}
						}
					}
				}
			}
		case actExit:
			if fr.activeMask&bit != 0 && fr.loops[a.loop].active {
				m.LoopOps = loopOps
				m.crossLoop(fr, int(a.loop), a.sub != 0)
				loopOps = m.LoopOps
			}
		default: // actBroken
			if fr.activeMask&bit != 0 {
				t := &fr.loops[a.loop]
				if t.active {
					t.frozen = true
					t.broken = true
					m.freezeMask(fr, int(a.loop))
				}
			}
		}
	}
	if !rec.backedge {
		return r + rec.blInc, blOps, loopOps
	}
	id := r + rec.exitVal
	m.BLOps, m.LoopOps = blOps, loopOps
	m.completePath(fr, id)
	if rec.beLoop >= 0 {
		lt := &fr.loops[rec.beLoop]
		if lt.active {
			// Inline crossing: reactivation below overwrites the whole
			// tracker and re-sets the mask bits, so the tracker clear and
			// mask clears crossLoop would do are dead stores here.
			m.incLoop(profile.LoopKey{
				Func: fr.fn.idx, Loop: int(rec.beLoop),
				Base: lt.base, Ext: lt.accum, Full: !lt.broken,
			})
			m.LoopOps += overhead.CounterOp
		}
		lt.active = true
		lt.frozen = fr.fn.loopRoot[rec.beLoop] >= fr.fn.loopFreeze[rec.beLoop]
		lt.broken = false
		lt.accum = 0
		lt.preds = fr.fn.loopRoot[rec.beLoop]
		lt.base = id
		bit := uint64(1) << uint(int(rec.beLoop)&63)
		fr.activeMask |= bit
		if !lt.frozen {
			fr.liveMask |= bit
		} else if fr.fn.maskExact {
			fr.liveMask &^= bit
		}
		m.LoopOps += 3 * overhead.RegOp // ro = r + y; r = x; ol = 0
	}
	return rec.entryVal, m.BLOps, m.LoopOps
}

// freezeMask drops loop from the frame's live-tracker mask after a freeze
// transition (only when indices map one-to-one onto mask bits).
func (m *Machine) freezeMask(fr *frame, loop int) {
	if fr.fn.maskExact {
		fr.liveMask &^= uint64(1) << uint(loop&63)
	}
}

// crossLoop finalizes one loop-exit crossing of one loop: the tracker's
// route, keyed by its base register, becomes one counter increment and the
// tracker deactivates. An interrupted (broken) crossing is kept but never
// full.
func (m *Machine) crossLoop(fr *frame, loop int, fullIter bool) {
	t := &fr.loops[loop]
	m.incLoop(profile.LoopKey{Func: fr.fn.idx, Loop: loop, Base: t.base, Ext: t.accum, Full: fullIter && !t.broken})
	m.LoopOps += overhead.CounterOp
	*t = trk{}
	if fr.fn.maskExact {
		bit := uint64(1) << uint(loop&63)
		fr.activeMask &^= bit
		fr.liveMask &^= bit
	}
}

// completePath handles a finished Ball-Larus path instance: the BL counter,
// the pending Type I region, and every in-flight Type II suffix. Each region
// walked the completed path from its root, so its route and the probe ops
// its per-edge steps cost come from its route table: keyed by the id itself
// for the entry region, by the id less the register value at the call site
// for a suffix.
func (m *Machine) completePath(fr *frame, id int64) {
	m.incBL(fr.fn.idx, id)
	m.BLOps += overhead.CounterOp
	fr.lastID = id

	if fr.entryOn {
		fr.entryOn = false
		rt := fr.fn.entry.at(id)
		m.store.IncTypeI(profile.TypeIKey{
			Caller: fr.entryCaller, Site: fr.entrySite,
			Callee: fr.fn.idx, Prefix: fr.entryPrefix, Ext: rt.ext,
		})
		m.InterOps += rt.ops + overhead.TupleCounterOp
	}
	for i := range fr.suffixes {
		s := &fr.suffixes[i]
		rt := fr.fn.sites[s.site].at(id - s.at)
		m.store.IncTypeII(profile.TypeIIKey{
			Caller: fr.fn.idx, Site: s.site, Callee: s.callee,
			Path: s.q, Ext: rt.ext,
		})
		m.InterOps += rt.ops + overhead.TupleCounterOp
	}
	fr.suffixes = fr.suffixes[:0]
}

// incBL records one Ball-Larus path completion, batching consecutive
// completions of the same path into one saturating bulk add.
func (m *Machine) incBL(fn int, path int64) {
	if m.bulk == nil {
		m.store.IncBL(fn, path)
		return
	}
	if m.pendBLN != 0 {
		if fn == m.pendBLFn && path == m.pendBLPath {
			m.pendBLN++
			return
		}
		m.bulk.AddBL(m.pendBLFn, m.pendBLPath, m.pendBLN)
	}
	m.pendBLFn, m.pendBLPath, m.pendBLN = fn, path, 1
}

// incLoop records one overlapping loop path, batching consecutive
// completions of the same key. The comparison is spelled field-by-field,
// most-discriminating first, so the common mismatch (a new base path) costs
// one compare instead of a full struct memequal.
func (m *Machine) incLoop(k profile.LoopKey) {
	if m.bulk == nil {
		m.store.IncLoop(k)
		return
	}
	if m.pendLoopN != 0 {
		p := &m.pendLoopKey
		if k.Base == p.Base && k.Ext == p.Ext && k.Full == p.Full &&
			k.Loop == p.Loop && k.Func == p.Func {
			m.pendLoopN++
			return
		}
		m.bulk.AddLoop(m.pendLoopKey, m.pendLoopN)
	}
	m.pendLoopKey, m.pendLoopN = k, 1
}

// incCall records one call-site transition, batching consecutive calls
// through the same edge.
func (m *Machine) incCall(k profile.CallKey) {
	if m.bulk == nil {
		m.store.IncCall(k)
		return
	}
	if m.pendCallN != 0 {
		if k == m.pendCallKey {
			m.pendCallN++
			return
		}
		m.bulk.AddCall(m.pendCallKey, m.pendCallN)
	}
	m.pendCallKey, m.pendCallN = k, 1
}

// flush drains every pending batched charge into the store. Batch adds are
// saturating and order-independent, so flushing late is byte-identical to
// the per-increment engines.
func (m *Machine) flush() {
	if m.bulk == nil {
		return
	}
	if m.pendBLN != 0 {
		m.bulk.AddBL(m.pendBLFn, m.pendBLPath, m.pendBLN)
		m.pendBLN = 0
	}
	if m.pendLoopN != 0 {
		m.bulk.AddLoop(m.pendLoopKey, m.pendLoopN)
		m.pendLoopN = 0
	}
	if m.pendCallN != 0 {
		m.bulk.AddCall(m.pendCallKey, m.pendCallN)
		m.pendCallN = 0
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
