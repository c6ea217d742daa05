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
// base+numRegs). Each slab slot keeps its suffixes capacity
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

	// The loop window, resolved when the frame's path completes: open is
	// the selected loop whose backedge began the path in flight (-1 none),
	// and openBase, the window's base register `ro`, the path that ended
	// there.
	open     int32
	openBase int64

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
	// arena is the store counts land in and tally its write view: the
	// run's store when it is an arena, otherwise own, a machine-owned
	// arena folded into the run's store when the run ends.
	arena *profile.ArenaStore
	tally *profile.ArenaWriter
	own   *profile.ArenaStore

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
	m.store, m.arena, m.tally = nil, nil, nil
	m.top, m.sp = 0, 0
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
	fr.open = -1
	fr.suffixes = fr.suffixes[:0]
	return fr
}

// Run executes main to completion, writing counters through store when the
// program was compiled with a plan (nil store = a fresh nested store,
// readable through Counters afterwards). An arena store, which must be
// built for the program's Info, is counted into directly; any other store
// must be a profile.BulkStore, and receives the run's counters once, when
// the run ends (also when it fails).
func (m *Machine) Run(store profile.CounterStore) error {
	if m.prog.main < 0 {
		return fmt.Errorf("interp: no main")
	}
	plan := m.prog.Plan
	if plan == nil {
		return m.run()
	}
	if store == nil {
		store = profile.NewNestedStore(len(plan.Info.Funcs))
	}
	m.store = store
	a, direct := store.(*profile.ArenaStore)
	var fold profile.BulkStore
	if !direct {
		bs, ok := store.(profile.BulkStore)
		if !ok {
			return fmt.Errorf("regvm: store %T does not support bulk aggregation", store)
		}
		if m.own == nil {
			k := plan.Cfg.K
			if !plan.Cfg.Loops && !plan.Cfg.Interproc {
				k = -1
			}
			m.own = profile.NewArenaStoreK(plan.Info, k)
		}
		a, fold = m.own, bs
	}
	m.arena, m.tally = a, a.Writer()
	err := m.run()
	if fold != nil {
		a.AddTo(fold)
		a.Reset()
	}
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
	// m.LoopOps (completePath) get an explicit spill/reload.
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
			r, blOps, loopOps = m.backedge(fr, &fr.fn.probes[in.c], r, blOps, loopOps)
			pc = in.b

		case opBranchProbe:
			br := &fr.fn.branches[in.c]
			arm := &br.then
			if ld(regs, shared, in.a) == 0 {
				arm = &br.els
			}
			if arm.probe >= 0 {
				r, blOps, loopOps = m.backedge(fr, &fr.fn.probes[arm.probe], r, blOps, loopOps)
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
				r, blOps, loopOps = m.backedge(fr, &fr.fn.probes[arm.probe], r, blOps, loopOps)
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
			if m.tally != nil {
				m.tally.Call(fr.fn.idx, int(rec.site), callee.idx)
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
			if m.tally != nil {
				// Exit completion: the walker stands at the exit
				// block, so the completed path id is r itself.
				m.BLOps, m.LoopOps = blOps, loopOps
				m.completePath(fr, r)
				blOps, loopOps = m.BLOps, m.LoopOps
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
			if m.tally != nil && rec.siteOn {
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

// backedge executes one backedge's probe record: its static charges, the
// completion of the path that ends there, the reopening of its loop's
// window with that path as base, and the start of the next path at the
// loop header, whose register value it returns. The dispatch loop's
// r/blOps/loopOps locals thread through as arguments and return values so
// the whole record costs one call.
func (m *Machine) backedge(fr *frame, rec *probeRec, r, blOps, loopOps int64) (int64, int64, int64) {
	m.BLOps, m.LoopOps = blOps+rec.blOps, loopOps+rec.loopOps
	id := r + rec.exitVal
	m.completePath(fr, id)
	if rec.open >= 0 {
		fr.open, fr.openBase = rec.open, id
	}
	return rec.entryVal, m.BLOps, m.LoopOps
}

// completePath handles a finished Ball-Larus path instance: the BL counter,
// the pending Type I region, every in-flight Type II suffix, and the loop
// window the path began in. Each region walked the completed path from its
// root, so its route and the probe ops its per-edge steps cost come from
// its route table: keyed by the id itself for the entry region, by the id
// less the register value at the call site for a suffix, and by the id less
// the header's entry value for the window.
func (m *Machine) completePath(fr *frame, id int64) {
	t, fn := m.tally, fr.fn.idx
	if !t.BL(fn, id) {
		m.arena.IncBL(fn, id)
	}
	m.BLOps += overhead.CounterOp
	fr.lastID = id

	if fr.entryOn {
		fr.entryOn = false
		rt := fr.fn.entry.at(id)
		if !t.TypeI(fr.entryCaller, fr.entrySite, fn, fr.entryPrefix, rt.ext) {
			m.arena.IncTypeI(profile.TypeIKey{
				Caller: fr.entryCaller, Site: fr.entrySite,
				Callee: fn, Prefix: fr.entryPrefix, Ext: rt.ext,
			})
		}
		m.InterOps += rt.ops + overhead.TupleCounterOp
	}
	for i := range fr.suffixes {
		s := &fr.suffixes[i]
		rt := fr.fn.sites[s.site].at(id - s.at)
		if !t.TypeII(fn, s.site, s.callee, s.q, rt.ext) {
			m.arena.IncTypeII(profile.TypeIIKey{
				Caller: fn, Site: s.site, Callee: s.callee,
				Path: s.q, Ext: rt.ext,
			})
		}
		m.InterOps += rt.ops + overhead.TupleCounterOp
	}
	fr.suffixes = fr.suffixes[:0]

	if l := fr.open; l >= 0 {
		fr.open = -1
		lt := fr.fn.windows[l]
		rt := lt.at(id - lt.entry)
		if !t.Loop(fn, int(l), fr.openBase, rt.ext, rt.full) {
			m.arena.IncLoop(profile.LoopKey{Func: fn, Loop: int(l), Base: fr.openBase, Ext: rt.ext, Full: rt.full})
		}
		m.LoopOps += rt.ops + overhead.CounterOp
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
