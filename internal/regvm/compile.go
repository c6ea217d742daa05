package regvm

// The compiler lowers each ir.Func to the register ISA: operands resolve to
// signed register references at compile time, edge probes lower to
// straight-line micro-ops, and a fusion pass merges the hottest adjacent
// pairs into superinstructions (see the package comment for the ISA).

import (
	"fmt"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/obs"
	"pathprof/internal/olpath"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
)

// Compile lowers prog (and plan's probes, when non-nil) to register code,
// emitting each function's blocks in source order.
func Compile(prog *ir.Program, plan *instrument.Plan) (*Program, error) {
	p := &Program{IR: prog, Plan: plan, main: -1, numGlobals: len(prog.Globals)}
	pool := map[int64]int32{}
	insns := 0
	for idx, fn := range prog.Funcs {
		c := &fnCompiler{p: p, prog: prog, plan: plan, fn: fn, pool: pool}
		cf, err := c.compile(idx)
		if err != nil {
			return nil, err
		}
		p.funcs = append(p.funcs, cf)
		insns += len(cf.code)
		if fn.Name == "main" {
			p.main = idx
		}
	}
	if obs.DebugEnabled() {
		f := p.Fusion
		obs.Logger().Debug("regvm.compile",
			"funcs", len(prog.Funcs), "insns", insns, "consts", len(p.consts),
			"fused", f.StepMove+f.StepBin+f.StepJump+f.StepBranch+f.Charge+f.ChargeJump+f.Probe+f.BranchProbe,
			"instrumented", plan != nil)
	}
	return p, nil
}

// probeSeq is one edge's lowered probe work before record assembly: its
// static charges and BL increment, or on a backedge the path completion.
type probeSeq struct {
	blOps   int64
	loopOps int64
	blInc   int64

	backedge bool
	exitVal  int64
	entryVal int64
	open     int32
}

// fixup is a pending jump-target patch on an emitted instruction's b or c
// field (branch arms patch through armFixup instead).
type fixup struct {
	pc    int32
	field uint8 // 1 = b, 2 = c
	to    int
}

// armFixup is a pending branch-arm target patch.
type armFixup struct {
	branch int32
	els    bool
	to     int
}

type fnCompiler struct {
	p          *Program
	prog       *ir.Program
	plan       *instrument.Plan
	fn         *ir.Func
	fi         *profile.FuncInfo
	chords     *bl.Chords
	loopExts   []*olpath.Ext
	entryExt   *olpath.Ext
	suffixExts []*olpath.Ext
	sel        *profile.Selection
	pool       map[int64]int32 // program-wide constant interning

	cf        *compiledFunc
	code      []inst
	blkOf     []int32
	blockPC   []int32
	fixups    []fixup
	armFixups []armFixup
	resumes   []*callRec // resumePC holds a block id until patched
	curBlk    int32
}

func (c *fnCompiler) emit(in inst) {
	c.code = append(c.code, in)
	c.blkOf = append(c.blkOf, c.curBlk)
}

// constRef interns v in the program-wide constant pool and returns its
// shared-slab reference.
func (c *fnCompiler) constRef(v int64) int32 {
	if ref, ok := c.pool[v]; ok {
		return ref
	}
	ref := ^int32(c.p.numGlobals + len(c.p.consts))
	c.p.consts = append(c.p.consts, v)
	c.pool[v] = ref
	return ref
}

// operand resolves an ir.Operand to a register reference.
func (c *fnCompiler) operand(o ir.Operand) (int32, error) {
	switch o.Kind {
	case ir.Const:
		return c.constRef(o.Val), nil
	case ir.Local:
		return int32(o.Index), nil
	case ir.Global:
		return ^int32(o.Index), nil
	default:
		return 0, fmt.Errorf("bad operand kind %d", o.Kind)
	}
}

// dest resolves an ir.Dest to a register reference (locals and globals
// only, so the constant section of the shared slab is never written).
func (c *fnCompiler) dest(d ir.Dest) (int32, error) {
	switch d.Kind {
	case ir.Local:
		return int32(d.Index), nil
	case ir.Global:
		return ^int32(d.Index), nil
	default:
		return 0, fmt.Errorf("bad destination kind %d", d.Kind)
	}
}

func (c *fnCompiler) compile(idx int) (*compiledFunc, error) {
	fn := c.fn
	if c.plan != nil {
		c.fi = c.plan.FuncInfoAt(idx)
		c.chords = c.plan.ChordsAt(idx)
		c.loopExts = c.plan.LoopExtsAt(idx)
		c.entryExt = c.plan.EntryExtAt(idx)
		c.suffixExts = c.plan.SuffixExtsAt(idx)
		c.sel = c.plan.Cfg.Selection
	}
	cf := &compiledFunc{fn: fn, idx: idx, numRegs: fn.NumSlots()}
	c.cf = cf

	c.blockPC = make([]int32, len(fn.Blocks))
	for bid, blk := range fn.Blocks {
		c.curBlk = int32(bid)
		c.blockPC[bid] = int32(len(c.code))
		if err := c.block(bid, blk); err != nil {
			return nil, fmt.Errorf("regvm: compile %s.%s: %w", fn.Name, blk.Label, err)
		}
	}

	// Patch every pending jump target now that block pcs are known.
	for _, fx := range c.fixups {
		if fx.field == 1 {
			c.code[fx.pc].b = c.blockPC[fx.to]
		} else {
			c.code[fx.pc].c = c.blockPC[fx.to]
		}
	}
	for _, fx := range c.armFixups {
		rec := &cf.branches[fx.branch]
		if fx.els {
			rec.els.pc = c.blockPC[fx.to]
		} else {
			rec.then.pc = c.blockPC[fx.to]
		}
	}
	for _, rec := range c.resumes {
		rec.resumePC = c.blockPC[rec.resumePC]
	}
	cf.code = c.code
	cf.blkOf = c.blkOf

	if c.plan != nil {
		if c.loopExts != nil {
			cf.windows = make([]*routeTable, len(c.loopExts))
			for i, x := range c.loopExts {
				if c.sel.LoopOn(c.fi.Index, i) {
					cf.windows[i] = newLoopTable(c.fi.Loops[i], x, routeTableLimit)
				}
			}
		}
		if c.entryExt != nil {
			cf.entry = newRouteTable(c.entryExt, routeTableLimit)
			cf.sites = make([]*routeTable, len(c.suffixExts))
			for i, x := range c.suffixExts {
				if c.sel.SiteOn(c.fi.Index, i) {
					cf.sites[i] = newRouteTable(x, routeTableLimit)
				}
			}
		}
	}
	return cf, nil
}

// block emits one basic block: the step probe fused into the block's first
// instruction when it is a move or a binary op (StepMove/StepBin), or into
// the terminator of a body-less block (StepJump/StepBranch), then the rest
// of the body and the terminator with its edge probes.
func (c *fnCompiler) block(bid int, blk *ir.Block) error {
	cost := blk.Cost()
	if len(blk.Body) == 0 {
		return c.term(bid, blk.Term, cost, true)
	}
	rest := blk.Body[1:]
	switch in := blk.Body[0].(type) {
	case ir.Assign:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		src, err := c.operand(in.Src)
		if err != nil {
			return err
		}
		c.emit(inst{op: opStepMove, a: dst, b: src, imm: cost})
		c.p.Fusion.StepMove++
	case ir.BinOp:
		if in.Op < ir.OpAdd || in.Op > ir.OpXor {
			// Invalid operator: keep the tree engine's runtime error.
			c.emit(inst{op: opStep, imm: cost})
			rest = blk.Body
			break
		}
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		x, err := c.operand(in.A)
		if err != nil {
			return err
		}
		y, err := c.operand(in.B)
		if err != nil {
			return err
		}
		c.emit(inst{op: opStepBin, sub: uint8(in.Op), a: dst, b: x, c: y, imm: cost})
		c.p.Fusion.StepBin++
	case ir.LoadIdx:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		idx, err := c.operand(in.Idx)
		if err != nil {
			return err
		}
		c.emit(inst{op: opStepLoad, a: dst, b: idx, c: int32(in.Array), imm: cost})
		c.p.Fusion.StepLoad++
	default:
		c.emit(inst{op: opStep, imm: cost})
		rest = blk.Body
	}
	for _, in := range rest {
		if err := c.body(in); err != nil {
			return err
		}
	}
	return c.term(bid, blk.Term, 0, false)
}

// body emits one straight-line instruction.
func (c *fnCompiler) body(in ir.Instr) error {
	switch in := in.(type) {
	case ir.Assign:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		src, err := c.operand(in.Src)
		if err != nil {
			return err
		}
		c.emit(inst{op: opMove, a: dst, b: src})
	case ir.BinOp:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		x, err := c.operand(in.A)
		if err != nil {
			return err
		}
		y, err := c.operand(in.B)
		if err != nil {
			return err
		}
		if in.Op < ir.OpAdd || in.Op > ir.OpXor {
			c.emit(inst{op: opBad, sub: uint8(in.Op)})
			return nil
		}
		c.emit(inst{op: opAdd + uint8(in.Op), a: dst, b: x, c: y})
	case ir.Not:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		src, err := c.operand(in.Src)
		if err != nil {
			return err
		}
		c.emit(inst{op: opNot, a: dst, b: src})
	case ir.Neg:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		src, err := c.operand(in.Src)
		if err != nil {
			return err
		}
		c.emit(inst{op: opNeg, a: dst, b: src})
	case ir.LoadIdx:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		idx, err := c.operand(in.Idx)
		if err != nil {
			return err
		}
		c.emit(inst{op: opLoad, a: dst, b: idx, imm: int64(in.Array)})
	case ir.StoreIdx:
		idx, err := c.operand(in.Idx)
		if err != nil {
			return err
		}
		src, err := c.operand(in.Src)
		if err != nil {
			return err
		}
		c.emit(inst{op: opStore, b: idx, c: src, imm: int64(in.Array)})
	case ir.Rand:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		bound, err := c.operand(in.Bound)
		if err != nil {
			return err
		}
		c.emit(inst{op: opRand, a: dst, b: bound})
	case ir.Print:
		args := make([]int32, len(in.Args))
		for i, a := range in.Args {
			ref, err := c.operand(a)
			if err != nil {
				return err
			}
			args[i] = ref
		}
		c.emit(inst{op: opPrint, c: int32(len(c.cf.prints))})
		c.cf.prints = append(c.cf.prints, args)
	case ir.FuncRef:
		dst, err := c.dest(in.Dst)
		if err != nil {
			return err
		}
		c.emit(inst{op: opFuncRef, a: dst, b: int32(c.prog.FuncIndex(in.Name)), c: c.nameRef(in.Name)})
	default:
		return fmt.Errorf("unknown instruction %T", in)
	}
	return nil
}

func (c *fnCompiler) nameRef(name string) int32 {
	for i, n := range c.cf.names {
		if n == name {
			return int32(i)
		}
	}
	c.cf.names = append(c.cf.names, name)
	return int32(len(c.cf.names) - 1)
}

// term emits one terminator. When fuseStep holds, the block's step probe
// has not been emitted yet: it fuses into a Jump or Branch, and falls back
// to a plain opStep before any other shape.
func (c *fnCompiler) term(bid int, t ir.Terminator, stepCost int64, fuseStep bool) error {
	step := func() {
		if fuseStep {
			c.emit(inst{op: opStep, imm: stepCost})
			fuseStep = false
		}
	}
	switch t := t.(type) {
	case ir.Jump:
		probe, err := c.probe(bid, t.To)
		if err != nil {
			return err
		}
		fall := t.To == bid+1
		if probe != nil {
			step()
			if c.emitProbe(probe, fall) {
				c.fixups = append(c.fixups, fixup{pc: int32(len(c.code) - 1), field: 1, to: t.To})
			}
			return nil
		}
		if fall {
			// Fall-through: the successor is emitted next.
			step()
			c.p.Fusion.FallThrough++
			return nil
		}
		c.fixups = append(c.fixups, fixup{pc: int32(len(c.code)), field: 1, to: t.To})
		if fuseStep {
			c.emit(inst{op: opStepJump, imm: stepCost})
			c.p.Fusion.StepJump++
			return nil
		}
		c.emit(inst{op: opJump})
	case ir.Branch:
		cond, err := c.operand(t.Cond)
		if err != nil {
			return err
		}
		thenProbe, err := c.probe(bid, t.Then)
		if err != nil {
			return err
		}
		elseProbe, err := c.probe(bid, t.Else)
		if err != nil {
			return err
		}
		if thenProbe != nil || elseProbe != nil {
			// Probed branch: fuse the branch, the taken edge's probe work,
			// and the jump into one dispatch through a branch record.
			ri := int32(len(c.cf.branches))
			c.cf.branches = append(c.cf.branches, branchRec{
				then: c.arm(thenProbe),
				els:  c.arm(elseProbe),
			})
			c.armFixups = append(c.armFixups,
				armFixup{branch: ri, els: false, to: t.Then},
				armFixup{branch: ri, els: true, to: t.Else})
			c.p.Fusion.BranchProbe++
			if fuseStep {
				c.emit(inst{op: opStepBranchProbe, a: cond, c: ri, imm: stepCost})
				return nil
			}
			c.emit(inst{op: opBranchProbe, a: cond, c: ri})
			return nil
		}
		pc := int32(len(c.code))
		c.fixups = append(c.fixups,
			fixup{pc: pc, field: 1, to: t.Then},
			fixup{pc: pc, field: 2, to: t.Else})
		if fuseStep {
			c.emit(inst{op: opStepBranch, a: cond, imm: stepCost})
			c.p.Fusion.StepBranch++
			return nil
		}
		c.emit(inst{op: opBranch, a: cond})
	case ir.Call:
		step()
		rec := &callRec{callee: -1, site: -1, calleeName: t.Callee, indirect: t.Indirect}
		if t.Indirect {
			target, err := c.operand(t.Target)
			if err != nil {
				return err
			}
			rec.target = target
		} else {
			rec.callee = int32(c.prog.FuncIndex(t.Callee))
		}
		rec.args = make([]int32, len(t.Args))
		for i, a := range t.Args {
			ref, err := c.operand(a)
			if err != nil {
				return err
			}
			rec.args[i] = ref
		}
		if t.HasDst {
			d, err := c.dest(t.Dst)
			if err != nil {
				return err
			}
			rec.hasDst = true
			rec.dst = d
		}
		if c.plan != nil {
			cs := c.fi.CallSiteOfBlock[cfg.NodeID(bid)]
			if cs == nil {
				return fmt.Errorf("no call site info at block %d", bid)
			}
			rec.site = int32(cs.Index)
			rec.siteOn = c.plan.Cfg.Interproc && c.plan.Cfg.K >= 0 &&
				c.sel.SiteOn(c.fi.Index, cs.Index)
		}
		resume, err := c.probe(bid, t.Next)
		if err != nil {
			return err
		}
		c.emit(inst{op: opCall, c: int32(len(c.cf.calls))})
		c.cf.calls = append(c.cf.calls, rec)
		if resume != nil {
			// The resume edge's probe sits inline after the call; the
			// return lands on it and it ends at the resume block.
			rec.resumePC = int32(len(c.code))
			if c.emitProbe(resume, t.Next == bid+1) {
				c.fixups = append(c.fixups, fixup{pc: int32(len(c.code) - 1), field: 1, to: t.Next})
			}
			return nil
		}
		rec.resumePC = int32(t.Next) // block id; patched to a pc afterwards
		c.resumes = append(c.resumes, rec)
	case ir.Ret:
		step()
		if t.HasVal {
			v, err := c.operand(t.Val)
			if err != nil {
				return err
			}
			c.emit(inst{op: opRetVal, a: v})
			return nil
		}
		c.emit(inst{op: opRet})
	default:
		step()
		c.emit(inst{op: opNoTerm})
	}
	return nil
}

// probeRecOf assembles a backedge's probe record.
func (c *fnCompiler) probeRecOf(s *probeSeq) int32 {
	ri := int32(len(c.cf.probes))
	c.cf.probes = append(c.cf.probes, probeRec{
		blOps: s.blOps, loopOps: s.loopOps,
		exitVal: s.exitVal, entryVal: s.entryVal, open: s.open,
	})
	return ri
}

// arm encodes one branch edge: nil and static probes inline into the arm
// itself; a backedge references a probe record. Targets are patched
// through armFixups.
func (c *fnCompiler) arm(s *probeSeq) branchArm {
	if s == nil {
		return branchArm{probe: -1}
	}
	if !s.backedge {
		return branchArm{probe: -1, blOps: int32(s.blOps), loopOps: int32(s.loopOps), blInc: s.blInc}
	}
	return branchArm{probe: c.probeRecOf(s)}
}

// emitProbe lowers one jump or call-resume edge's probe at the current
// position and reports whether the emitted instruction jumps (its target
// is patched through a fixup): a static probe becomes an opCharge
// (fall-through) or opChargeJump, a backedge a record-driven opProbe,
// which always jumps.
func (c *fnCompiler) emitProbe(s *probeSeq, fall bool) bool {
	switch {
	case s.backedge:
		c.emit(inst{op: opProbe, c: c.probeRecOf(s)})
		c.p.Fusion.Probe++
		return true
	case fall:
		c.emit(inst{op: opCharge, a: int32(s.blOps), c: int32(s.loopOps), imm: s.blInc})
		c.p.Fusion.Charge++
		c.p.Fusion.FallThrough++
		return false
	}
	c.emit(inst{op: opChargeJump, a: int32(s.blOps), c: int32(s.loopOps), imm: s.blInc})
	c.p.Fusion.ChargeJump++
	return true
}

// probe lowers the probe of edge bid→to (nil when the program is
// uninstrumented or the edge has no probe work at all): the Ball-Larus and
// loop op charges the tree engine's instrument.Runtime makes on the edge
// whatever the trackers' state, and on a backedge the path completion. No
// tracker steps here: loop windows and interprocedural regions resolve at
// path completion through the route tables (routes.go).
func (c *fnCompiler) probe(bid, to int) (*probeSeq, error) {
	if c.plan == nil {
		return nil, nil
	}
	fi := c.fi
	d := fi.DAG
	e := cfg.Edge{From: cfg.NodeID(bid), To: cfg.NodeID(to)}
	isBE := d.IsBackedge(e)
	s := &probeSeq{open: -1}

	// Ball-Larus op accounting: naive placement charges every non-zero
	// real-edge increment and two register reloads per backedge; chord
	// placement charges non-zero chord increments (backedges standing for
	// their exit+entry dummies).
	if c.chords == nil {
		if !isBE {
			if re := d.RealEdge(e); re != nil && re.Val != 0 {
				s.blOps += overhead.RegOp
			}
		} else {
			s.blOps += 2 * overhead.RegOp
		}
	} else {
		charge := func(de *bl.DAGEdge) {
			if de != nil && c.chords.IsChord(de) && c.chords.Inc(de) != 0 {
				s.blOps += overhead.RegOp
			}
		}
		if !isBE {
			charge(d.RealEdge(e))
		} else {
			charge(d.ExitDummy(e))
			charge(d.EntryDummy(e.To))
		}
	}

	// Ball-Larus register update / backedge completion values.
	if !isBE {
		re := d.RealEdge(e)
		if re == nil {
			return nil, fmt.Errorf("edge %d->%d not in DAG", bid, to)
		}
		s.blInc = re.Val
	} else {
		xd, ed := d.ExitDummy(e), d.EntryDummy(e.To)
		if xd == nil || ed == nil {
			return nil, fmt.Errorf("backedge %d->%d without dummies", bid, to)
		}
		s.backedge = true
		s.exitVal, s.entryVal = xd.Val, ed.Val
	}

	if c.loopExts != nil {
		for i, li := range fi.Loops {
			if !c.sel.LoopOn(fi.Index, i) {
				continue
			}
			inFrom := li.Loop.Contains(e.From)
			inTo := li.Loop.Contains(e.To)
			switch {
			case isBE && li.Loop.IsBackedge(e):
				// The window reopens with the completed path as base.
				s.loopOps += 3 * overhead.RegOp // ro = r + y; r = x; ol = 0
				s.open = int32(i)
			case inFrom && !inTo:
				s.loopOps += overhead.GuardOp
			case inFrom && inTo && !isBE:
				switch c.loopExts[i].Classify(e) {
				case olpath.DI:
					s.loopOps += overhead.RegOp
				case olpath.PI:
					s.loopOps += overhead.GuardOp
				}
				if d.PredicateLike(e.To) {
					s.loopOps += overhead.RegOp // ol++
				}
			case !inFrom && inTo:
				s.loopOps += overhead.RegOp
			}
		}
	}

	if !s.backedge && s.blOps == 0 && s.loopOps == 0 && s.blInc == 0 {
		return nil, nil
	}
	return s, nil
}
