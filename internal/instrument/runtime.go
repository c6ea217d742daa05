// Package instrument implements the instrumented profiling runtime: the
// realization of the paper's probe insertion as interpreter-attached edge
// probes. The probe *sites* and the register machinery (`r` for Ball-Larus
// ids, `ro`/`ol` per overlap region) follow Section 2.3 and Section 3.3 of
// the paper; probe costs accrue per executed probe operation so the
// overhead model can report the paper's overhead percentages.
package instrument

import (
	"fmt"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/interp"
	"pathprof/internal/olpath"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
)

// Config selects what to instrument.
type Config struct {
	// K is the degree of overlap (clamped per region to its maximum
	// useful degree). K applies to loop and interprocedural overlapping
	// paths alike, as in the paper's sweeps.
	K int
	// Loops enables overlapping-loop-path profiling.
	Loops bool
	// Interproc enables Type I / Type II interprocedural profiling.
	Interproc bool
	// Iters is the multi-iteration window width for loop overlapping
	// paths: each profiled path spans up to Iters consecutive iterations.
	// 0 (the zero value) and 2 both select the paper's two-iteration
	// setting; values are clamped to [2, olpath.MaxIters]. See EffIters.
	Iters int
	// Selection restricts overlapping-path probes to chosen loops and
	// call sites (nil = everything). Ball-Larus probes are unaffected.
	Selection *profile.Selection
	// ChordBL places Ball-Larus increments on spanning-tree chords
	// (Ball-Larus's probe-placement optimization) instead of on every
	// valued edge; affects probe-cost accounting only — path ids are
	// identical by construction.
	ChordBL bool
	// ChordProfile, when set with ChordBL, weights the spanning tree
	// with a prior run's BL profile so the hottest edges escape
	// instrumentation (the two-phase placement Ball-Larus describe).
	ChordProfile *profile.Counters
}

// EffIters returns the effective multi-iteration window width: Iters
// clamped to [2, olpath.MaxIters], with everything below 2 (including the
// zero value) meaning the classic two-iteration setting.
func (c Config) EffIters() int {
	if c.Iters < 2 {
		return 2
	}
	if c.Iters > olpath.MaxIters {
		return olpath.MaxIters
	}
	return c.Iters
}

// Runtime is the instrumented-run listener. Register it on a machine (via
// New or Plan.Attach), run, then read Counters and Ops.
type Runtime struct {
	interp.BaseListener
	Info *profile.Info
	Cfg  Config
	// BLOps, LoopOps, InterOps tally probe operations by category.
	BLOps, LoopOps, InterOps int64
	// Err records the first internal error.
	Err error

	store   profile.CounterStore
	idx     int
	pending *pendingCall
	plans   []*funcPlan
}

// Counters returns the run's collected counters in the canonical
// nested-map form (materialized on demand for arena stores; read it after
// the run completes).
func (rt *Runtime) Counters() *profile.Counters { return rt.store.Counters() }

type pendingCall struct {
	caller, site int
	prefix       int64
}

// funcPlan caches per-function instrumentation state.
type funcPlan struct {
	fi *profile.FuncInfo
	// chords is the BL probe placement when Config.ChordBL is on.
	chords *bl.Chords
	// loopExts[i] is loop i's extension region at its effective degree
	// (nil when loop profiling is off).
	loopExts []*olpath.Ext
	// entryExt is the Type I region (nil when interproc is off).
	entryExt *olpath.Ext
	// suffixExts[i] is call site i's Type II region.
	suffixExts []*olpath.Ext
}

type suffixState struct {
	tr     *olpath.Tracker
	site   int
	callee int
	q      int64
}

type frProbe struct {
	plan *funcPlan
	w    *bl.Walker
	// loopTr[i] tracks loop i's extension; rings[i] holds loop i's open
	// multi-iteration windows (at iters=2 a ring degenerates to the
	// classic single base-path register).
	loopTr []*olpath.Tracker
	rings  []olpath.Ring
	// entryTr tracks the Type I extension until the first path completes.
	entryTr  *olpath.Tracker
	entryKey pendingCall
	// suffixes are the in-flight Type II extensions.
	suffixes []suffixState
	lastID   int64
}

// Plan is a reusable instrumentation plan: the per-function probe
// placements (chords, extension regions) a Config implies, fully resolved.
// A Plan is immutable after BuildPlan and may be attached to any number of
// machines, concurrently — this is what a pipeline ArtifactCache shares
// across the runs of a degree sweep.
type Plan struct {
	Info  *profile.Info
	Cfg   Config
	funcs []*funcPlan
}

// FuncInfoAt returns the FuncInfo of function f (by program index).
func (p *Plan) FuncInfoAt(f int) *profile.FuncInfo { return p.funcs[f].fi }

// ChordsAt returns function f's Ball-Larus chord placement (nil when
// Config.ChordBL is off).
func (p *Plan) ChordsAt(f int) *bl.Chords { return p.funcs[f].chords }

// LoopExtsAt returns function f's per-loop extension regions at their
// effective degrees (nil when loop profiling is off).
func (p *Plan) LoopExtsAt(f int) []*olpath.Ext { return p.funcs[f].loopExts }

// EntryExtAt returns function f's Type I callee-entry region (nil when
// interprocedural profiling is off).
func (p *Plan) EntryExtAt(f int) *olpath.Ext { return p.funcs[f].entryExt }

// SuffixExtsAt returns function f's per-call-site Type II suffix regions
// (nil when interprocedural profiling is off).
func (p *Plan) SuffixExtsAt(f int) []*olpath.Ext { return p.funcs[f].suffixExts }

// New creates a runtime for info under cfg and registers it on m, building
// a throwaway plan and a nested-map store (the uncached path; reuse plans
// through BuildPlan/Attach or internal/pipeline when running more than
// once).
func New(info *profile.Info, cfg Config, m *interp.Machine) (*Runtime, error) {
	plan, err := BuildPlan(info, cfg)
	if err != nil {
		return nil, err
	}
	return plan.Attach(m, nil), nil
}

// BuildPlan resolves the probe placement for every function of info under
// cfg.
func BuildPlan(info *profile.Info, cfg Config) (*Plan, error) {
	p := &Plan{Info: info, Cfg: cfg}
	for _, fi := range info.Funcs {
		fp := &funcPlan{fi: fi}
		if cfg.ChordBL {
			weight := bl.UniformWeight
			if cfg.ChordProfile != nil {
				w, err := bl.ProfileWeight(fi.DAG, cfg.ChordProfile.BL[fi.Index])
				if err != nil {
					return nil, fmt.Errorf("instrument: %s: %w", fi.Fn.Name, err)
				}
				weight = w
			}
			ch, err := bl.ComputeChords(fi.DAG, weight)
			if err != nil {
				return nil, fmt.Errorf("instrument: %s: %w", fi.Fn.Name, err)
			}
			fp.chords = ch
		}
		if cfg.Loops && cfg.K >= 0 {
			fp.loopExts = make([]*olpath.Ext, len(fi.Loops))
			for i, li := range fi.Loops {
				x, err := li.Ext(li.EffectiveK(cfg.K))
				if err != nil {
					return nil, fmt.Errorf("instrument: %s: %w", fi.Fn.Name, err)
				}
				fp.loopExts[i] = x
			}
		}
		if cfg.Interproc && cfg.K >= 0 {
			x, err := fi.EntryExt(fi.EffectiveKEntry(cfg.K))
			if err != nil {
				return nil, fmt.Errorf("instrument: %s: %w", fi.Fn.Name, err)
			}
			fp.entryExt = x
			fp.suffixExts = make([]*olpath.Ext, len(fi.CallSites))
			for i, cs := range fi.CallSites {
				sx, err := cs.SuffixExt(cs.EffectiveKSuffix(cfg.K))
				if err != nil {
					return nil, fmt.Errorf("instrument: %s: %w", fi.Fn.Name, err)
				}
				fp.suffixExts[i] = sx
			}
		}
		p.funcs = append(p.funcs, fp)
	}
	return p, nil
}

// Attach registers a fresh runtime for the plan on m, writing counters
// through store (nil = a fresh nested-map store). Each run needs its own
// Runtime; the plan itself is shared.
func (p *Plan) Attach(m *interp.Machine, store profile.CounterStore) *Runtime {
	if store == nil {
		store = profile.NewNestedStore(len(p.Info.Funcs))
	}
	rt := &Runtime{
		Info:  p.Info,
		Cfg:   p.Cfg,
		store: store,
		plans: p.funcs,
	}
	rt.idx = m.AddListener(rt)
	return rt
}

// Report packages the run's overhead against a base-op count.
func (rt *Runtime) Report(baseOps int64) overhead.Report {
	return overhead.Report{
		BaseOps:  baseOps,
		BLOps:    rt.BLOps,
		LoopOps:  rt.LoopOps,
		InterOps: rt.InterOps,
	}
}

func (rt *Runtime) setErr(err error) {
	if rt.Err == nil && err != nil {
		rt.Err = err
	}
}

func (rt *Runtime) state(fr *interp.Frame) *frProbe {
	ps, _ := fr.Data[rt.idx].(*frProbe)
	return ps
}

// OnEnter implements interp.Listener.
func (rt *Runtime) OnEnter(fr *interp.Frame) {
	fp := rt.plans[rt.Info.OfFunc(fr.Fn).Index]
	ps := &frProbe{
		plan: fp,
		w:    bl.NewWalker(fp.fi.DAG),
	}
	if fp.loopExts != nil {
		ps.loopTr = make([]*olpath.Tracker, len(fp.loopExts))
		ps.rings = make([]olpath.Ring, len(fp.loopExts))
		iters := rt.Cfg.EffIters()
		for i, x := range fp.loopExts {
			ps.loopTr[i] = olpath.NewTracker(x)
			ps.rings[i].Reset(iters)
		}
	}
	if fp.entryExt != nil && rt.pending != nil {
		ps.entryTr = olpath.NewTracker(fp.entryExt)
		ps.entryTr.Activate()
		ps.entryKey = *rt.pending
		rt.InterOps += 2 * overhead.RegOp // func id store + prefix save
	}
	rt.pending = nil
	fr.Data[rt.idx] = ps
}

// OnEdge implements interp.Listener.
func (rt *Runtime) OnEdge(fr *interp.Frame, from, to int) {
	ps := rt.state(fr)
	fp := ps.plan
	fi := fp.fi
	e := cfg.Edge{From: cfg.NodeID(from), To: cfg.NodeID(to)}
	isBackedge := fi.DAG.IsBackedge(e)

	// Ball-Larus register work. Naive placement: one op per non-zero
	// increment, and backedges pay the two register reloads. Chord
	// placement: one op per chord edge with a non-zero chord increment
	// (the dummy edges a backedge stands for included).
	if fp.chords == nil {
		if !isBackedge {
			if re := fi.DAG.RealEdge(e); re != nil && re.Val != 0 {
				rt.BLOps += overhead.RegOp
			}
		} else {
			rt.BLOps += 2 * overhead.RegOp
		}
	} else {
		charge := func(de *bl.DAGEdge) {
			if de != nil && fp.chords.IsChord(de) && fp.chords.Inc(de) != 0 {
				rt.BLOps += overhead.RegOp
			}
		}
		if !isBackedge {
			charge(fi.DAG.RealEdge(e))
		} else {
			charge(fi.DAG.ExitDummy(e))
			charge(fi.DAG.EntryDummy(e.To))
		}
	}

	// Overlap-region probe work happens before the walker consumes the
	// edge (probes sit on the edge itself).
	if ps.loopTr != nil {
		rt.loopEdge(ps, e, isBackedge)
	}
	if ps.entryTr != nil && !isBackedge {
		rt.extStep(ps.entryTr, e, &rt.InterOps)
	}
	for i := range ps.suffixes {
		if !isBackedge {
			rt.extStep(ps.suffixes[i].tr, e, &rt.InterOps)
		}
	}

	inst, done, err := ps.w.Step(cfg.NodeID(to))
	if err != nil {
		rt.setErr(err)
		return
	}
	if done {
		rt.completed(ps, inst)
		// A backedge both completes a path and activates the loop's
		// extension with the completed path as base.
		if ps.loopTr != nil {
			li := fi.LoopOfBackedge[e]
			if li == nil {
				rt.setErr(fmt.Errorf("instrument: backedge %v without loop in %s", e, fi.Fn.Name))
				return
			}
			if !rt.Cfg.Selection.LoopOn(fi.Index, li.Index) {
				return
			}
			tr := ps.loopTr[li.Index]
			if tr.Active {
				rt.crossLoop(ps, li, tr, false, true)
			}
			tr.Activate()
			ps.rings[li.Index].Open(inst.PathID)
			rt.LoopOps += 3 * overhead.RegOp // ro = r + y; r = x; ol = 0
		}
	}
}

// loopEdge handles loop-overlap probes for one edge.
func (rt *Runtime) loopEdge(ps *frProbe, e cfg.Edge, isBackedge bool) {
	fi := ps.plan.fi
	for i, li := range fi.Loops {
		if !rt.Cfg.Selection.LoopOn(fi.Index, i) {
			continue
		}
		x := ps.plan.loopExts[i]
		tr := ps.loopTr[i]
		inFrom := li.Loop.Contains(e.From)
		inTo := li.Loop.Contains(e.To)
		switch {
		case isBackedge && li.Loop.IsBackedge(e):
			// Handled after the walker step (needs the completed
			// path id); nothing here.
		case inFrom && !inTo:
			// Loop exit edge: flush an active extension. The
			// iteration is full iff it leaves from one of this
			// loop's tails.
			rt.LoopOps += overhead.GuardOp
			if tr.Active {
				rt.crossLoop(ps, li, tr, true, isTailOf(li, e.From))
			}
		case inFrom && inTo:
			if isBackedge {
				// Another loop's backedge inside this body: the
				// overlapped iteration is interrupted mid-way;
				// it can no longer complete as a full sequence.
				tr.MarkBroken()
				continue
			}
			// In-body edge: DI/PI probes execute statically.
			switch x.Classify(e) {
			case olpath.DI:
				rt.LoopOps += overhead.RegOp
			case olpath.PI:
				rt.LoopOps += overhead.GuardOp
				if tr.Active && !tr.Frozen {
					rt.LoopOps += overhead.RegOp
				}
			}
			tr.Step(e)
			// The paper's `ol++` at every predicate inside the
			// loop.
			if fi.DAG.PredicateLike(e.To) {
				rt.LoopOps += overhead.RegOp
			}
		case !inFrom && inTo:
			// Loop entry edge: `ro = -infinity`.
			rt.LoopOps += overhead.RegOp
		}
	}
}

// isTailOf reports whether v is the source of one of li's backedges.
func isTailOf(li *profile.LoopInfo, v cfg.NodeID) bool {
	for _, be := range li.Loop.Backedges {
		if be.From == v {
			return true
		}
	}
	return false
}

// crossLoop finalizes one backedge/exit crossing of loop li: the tracker's
// route is appended to every open window of the loop's ring, and the
// windows the crossing closes become counter increments. On the loop's own
// backedge (exit=false) only full-width windows close, and the still-open
// windows pay one register append each; on a loop exit (exit=true) every
// window closes, truncated or not. fullIter reports that the crossed
// iteration ran header to tail; an interrupted (Broken) crossing is kept
// but never full.
func (rt *Runtime) crossLoop(ps *frProbe, li *profile.LoopInfo, tr *olpath.Tracker, exit, fullIter bool) {
	full := fullIter && !tr.Broken
	ext := tr.Finalize()
	ring := &ps.rings[li.Index]
	var ws []olpath.Window
	if exit {
		ws = ring.FlushAll(ext, full)
	} else {
		open := ring.Len()
		ws = ring.Cross(ext, full)
		rt.LoopOps += int64(open-len(ws)) * overhead.RegOp
	}
	for _, w := range ws {
		rt.store.IncLoop(profile.LoopKeyOf(ps.plan.fi.Index, li.Index, w))
		rt.LoopOps += overhead.CounterOp
	}
}

// extStep advances an interprocedural extension tracker over edge e with
// probe accounting.
func (rt *Runtime) extStep(tr *olpath.Tracker, e cfg.Edge, ops *int64) {
	switch tr.X.Classify(e) {
	case olpath.DI:
		*ops += overhead.RegOp
	case olpath.PI:
		*ops += overhead.GuardOp
		if tr.Active && !tr.Frozen {
			*ops += overhead.RegOp
		}
	}
	if tr.X.D.PredicateLike(e.To) && tr.Active {
		*ops += overhead.RegOp // ol++
	}
	tr.Step(e)
}

// completed handles a finished BL path instance.
func (rt *Runtime) completed(ps *frProbe, inst bl.Instance) {
	fi := ps.plan.fi
	rt.store.IncBL(fi.Index, inst.PathID)
	rt.BLOps += overhead.CounterOp
	ps.lastID = inst.PathID

	if ps.entryTr != nil {
		ext := ps.entryTr.Finalize()
		rt.store.IncTypeI(profile.TypeIKey{
			Caller: ps.entryKey.caller, Site: ps.entryKey.site,
			Callee: fi.Index, Prefix: ps.entryKey.prefix, Ext: ext,
		})
		rt.InterOps += overhead.TupleCounterOp
		ps.entryTr = nil
	}
	for _, s := range ps.suffixes {
		ext := s.tr.Finalize()
		rt.store.IncTypeII(profile.TypeIIKey{
			Caller: fi.Index, Site: s.site, Callee: s.callee,
			Path: s.q, Ext: ext,
		})
		rt.InterOps += overhead.TupleCounterOp
	}
	ps.suffixes = ps.suffixes[:0]
}

// OnCall implements interp.Listener.
func (rt *Runtime) OnCall(caller *interp.Frame, site int, calleeFr *interp.Frame) {
	ps := rt.state(caller)
	cs := ps.plan.fi.CallSiteOfBlock[cfg.NodeID(site)]
	if cs == nil {
		rt.setErr(fmt.Errorf("instrument: no call site info at %s block %d", ps.plan.fi.Fn.Name, site))
		return
	}
	calleeIdx := rt.Info.OfFunc(calleeFr.Fn).Index
	rt.store.IncCall(profile.CallKey{Caller: ps.plan.fi.Index, Site: cs.Index, Callee: calleeIdx})
	if rt.Cfg.Interproc && rt.Cfg.K >= 0 && rt.Cfg.Selection.SiteOn(ps.plan.fi.Index, cs.Index) {
		rt.InterOps += overhead.CallProbeOp
		rt.pending = &pendingCall{caller: ps.plan.fi.Index, site: cs.Index, prefix: ps.w.PartialID()}
	}
}

// OnExit implements interp.Listener.
func (rt *Runtime) OnExit(fr *interp.Frame) {
	ps := rt.state(fr)
	inst, err := ps.w.Finish()
	if err != nil {
		rt.setErr(err)
		return
	}
	rt.completed(ps, inst)
}

// OnReturn implements interp.Listener.
func (rt *Runtime) OnReturn(calleeFr, callerFr *interp.Frame, site int) {
	if !rt.Cfg.Interproc || rt.Cfg.K < 0 {
		return
	}
	callerPS := rt.state(callerFr)
	calleePS := rt.state(calleeFr)
	cs := callerPS.plan.fi.CallSiteOfBlock[cfg.NodeID(site)]
	if cs == nil {
		rt.setErr(fmt.Errorf("instrument: no call site info at %s block %d", callerPS.plan.fi.Fn.Name, site))
		return
	}
	if !rt.Cfg.Selection.SiteOn(callerPS.plan.fi.Index, cs.Index) {
		return
	}
	tr := olpath.NewTracker(callerPS.plan.suffixExts[cs.Index])
	tr.Activate()
	callerPS.suffixes = append(callerPS.suffixes, suffixState{
		tr:     tr,
		site:   cs.Index,
		callee: calleePS.plan.fi.Index,
		q:      calleePS.lastID,
	})
	rt.InterOps += 2 * overhead.RegOp // arm ro/ol for the suffix
}
