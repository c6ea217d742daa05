// Package trace implements the ground-truth side of the evaluation: a
// whole-program tracer that segments execution into dynamic BL path
// instances (via the reference walker), records the adjacency events that
// define interesting paths — consecutive loop iterations and call/return
// crossings — and attributes flow to interesting paths for the paper's
// Table 1. It plays the role the WPP traces played in the paper: the exact
// frequency of any path.
package trace

import (
	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/interp"
	"pathprof/internal/olpath"
	"pathprof/internal/profile"
)

// LoopAdjKey records "BL path A ended at a backedge of (Func, Loop) and was
// immediately followed by BL path B". Interesting-path pair frequencies and
// expected overlapping-path counters at any degree derive from these.
type LoopAdjKey struct {
	Func, Loop int
	A, B       int64
}

// LoopChainKey records one maximal multi-iteration window observed on loop
// (Func, Loop): the window opened when BL path Base completed at one of the
// loop's backedges, and then collected the descriptors Succ[0..N-1] of its
// next N backedge/exit crossings. A crossing's descriptor is the first BL
// path that completed after the crossing began — the path whose loop
// occurrence fully determines the route and completeness the instrumented
// runtime registers for that crossing (the same per-path analysis the
// two-iteration derivation applies to adjacency successors). Chains are
// recorded at the maximum width (olpath.MaxIters-1 descriptors); expected
// counters at any iters in [2, olpath.MaxIters] derive by prefix-slicing.
type LoopChainKey struct {
	Func, Loop int
	Base       int64
	N          int
	Succ       [olpath.MaxIters - 1]int64
}

// T1AdjKey records a Type I crossing: at call Site of Caller (prefix
// register Prefix), Callee's first completed BL path was Q.
type T1AdjKey struct {
	Caller, Site, Callee int
	Prefix               int64
	Q                    int64
}

// T2AdjKey records a Type II crossing: Callee returned from Site of Caller
// with final BL path Q, and the caller's enclosing BL path completed as
// CallerPath (whose suffix after the site is the second component).
type T2AdjKey struct {
	Caller, Site, Callee int
	Q                    int64
	CallerPath           int64
}

// Attribution tallies dynamic BL path instances by participation in
// interesting paths, for Table 1. Proc takes precedence over Loop so the
// two categories are disjoint, as in the paper's table.
type Attribution struct {
	Total    uint64
	LoopOnly uint64
	Proc     uint64
}

// LoopPct returns the percentage of flow attributable to loop-backedge
// crossing paths.
func (a Attribution) LoopPct() float64 {
	if a.Total == 0 {
		return 0
	}
	return 100 * float64(a.LoopOnly) / float64(a.Total)
}

// ProcPct returns the percentage attributable to procedure-boundary
// crossing paths.
func (a Attribution) ProcPct() float64 {
	if a.Total == 0 {
		return 0
	}
	return 100 * float64(a.Proc) / float64(a.Total)
}

// TotalPct returns the combined percentage.
func (a Attribution) TotalPct() float64 { return a.LoopPct() + a.ProcPct() }

// Tracer is an interp.Listener producing ground truth.
type Tracer struct {
	interp.BaseListener
	Info *profile.Info

	// BL holds the reference Ball-Larus profiles per function.
	BL []map[int64]uint64
	// LoopAdj, T1, T2 are the adjacency event counts.
	LoopAdj map[LoopAdjKey]uint64
	T1      map[T1AdjKey]uint64
	T2      map[T2AdjKey]uint64
	// LoopChain holds the maximal-width multi-iteration window chains
	// (see LoopChainKey); multi-iteration expected counters derive from
	// these.
	LoopChain map[LoopChainKey]uint64
	// Calls counts calls per (caller, site, callee).
	Calls map[profile.CallKey]uint64
	// Attr is the Table 1 attribution tally.
	Attr Attribution
	// Err records the first internal inconsistency (nil on sound runs).
	Err error

	// WPP, when non-nil (see EnableWPP), accumulates the whole-program
	// block trace as a SEQUITUR grammar.
	WPP *Grammar

	// pending is the Type I crossing of the call in flight, consumed by
	// the callee's OnEnter when havePending is set.
	pending     pendT1
	havePending bool
	pathCache   []map[int64]*bl.Path
	// facts caches, per function, each distinct completed path's facts.
	facts []funcFacts
	// frames holds per-activation state indexed by call depth; an entry
	// is reused by the next activation at its depth, so steady calls
	// allocate nothing.
	frames []*frState
}

// funcFacts caches what the tracer needs of each distinct BL path of one
// function, computed on the path's first completion, so an instance costs
// a lookup instead of a path reconstruction and a loop analysis.
type funcFacts struct {
	byID map[int64]pathFacts
	// seq holds one row of len(FuncInfo.Loops) entries per cached path:
	// the index in the loop's LoopPaths of the full iteration sequence
	// the path holds (bl.AnalyzeLoop's Full && SeqIndex >= 0), or -1.
	seq []int32
}

// pathFacts locates one path's row in funcFacts.seq and names the loop
// whose backedge ends the path.
type pathFacts struct {
	// endLoop is the index of the loop whose backedge ends the path, or
	// -1 when the path runs to the procedure exit.
	endLoop int32
	// row is the offset of the path's row in funcFacts.seq.
	row int32
}

type instRec struct {
	loop, proc bool
}

type pendT1 struct {
	caller, site int
	prefix       int64
}

type pendT2 struct {
	site, callee int
	q            int64
}

// pendLoop is an instance that ended at a backedge of loop, awaiting its
// successor for loop pairing.
type pendLoop struct {
	loop int
	id   int64
	// full reports that the instance holds a full iteration sequence of
	// loop — the first half of an interesting pair.
	full bool
	rec  instRec
}

// chainWin is one open multi-iteration window of the tracer, mirroring the
// runtime's olpath.Window but holding crossing descriptors (BL path ids)
// instead of resolved routes.
type chainWin struct {
	base int64
	n    int
	succ [olpath.MaxIters - 1]int64
}

// loopTraceState is one loop's per-frame chain-recording state.
type loopTraceState struct {
	// open are the loop's open windows, oldest first (at most
	// olpath.MaxIters-1, like the runtime's ring).
	open []chainWin
	// awaiting marks a crossing in progress: the loop's tracker activated
	// at a backedge completion and has not yet crossed again or exited.
	awaiting bool
	// desc/haveDesc capture the in-progress crossing's descriptor — the
	// first path that completed after activation (a path ending at another
	// loop's backedge inside the body; it breaks and freezes the tracker,
	// so later paths cannot influence the crossing's route).
	desc     int64
	haveDesc bool
	// pendExit marks windows flushed at a loop exit before any path
	// completed since activation: their final descriptor is the path in
	// flight at the exit edge, adopted when it completes.
	pendExit bool
}

// frState is the tracer's state for one activation. Records are held by
// value and slices keep their backing arrays across reuse.
type frState struct {
	fi  *profile.FuncInfo
	w   bl.Walker
	cur instRec
	// pendBase is the instance that ended at a backedge (valid when
	// haveBase is set).
	pendBase pendLoop
	haveBase bool
	// first is the Type I pending record (valid when haveFirst is set),
	// consumed when the frame's first BL path completes.
	first     pendT1
	haveFirst bool
	// pendII are Type II crossings awaiting the enclosing path's
	// completion.
	pendII []pendT2
	// loopSt is the per-loop multi-iteration chain state.
	loopSt []loopTraceState
	// lastID is the id of the frame's final (exit) instance.
	lastID int64
}

// reset readies fs for a new activation of fi.
func (fs *frState) reset(fi *profile.FuncInfo) {
	fs.fi = fi
	fs.w.Reset(fi.DAG)
	fs.cur = instRec{}
	fs.haveBase, fs.haveFirst = false, false
	fs.pendII = fs.pendII[:0]
	n := len(fi.Loops)
	if cap(fs.loopSt) < n {
		fs.loopSt = make([]loopTraceState, n)
	}
	fs.loopSt = fs.loopSt[:n]
	for i := range fs.loopSt {
		st := &fs.loopSt[i]
		*st = loopTraceState{open: st.open[:0]}
	}
	fs.lastID = 0
}

// NewTracer creates a tracer and registers it on m.
func NewTracer(info *profile.Info, m *interp.Machine) *Tracer {
	t := &Tracer{
		Info:      info,
		BL:        make([]map[int64]uint64, len(info.Funcs)),
		LoopAdj:   map[LoopAdjKey]uint64{},
		LoopChain: map[LoopChainKey]uint64{},
		T1:        map[T1AdjKey]uint64{},
		T2:        map[T2AdjKey]uint64{},
		Calls:     map[profile.CallKey]uint64{},
		pathCache: make([]map[int64]*bl.Path, len(info.Funcs)),
		facts:     make([]funcFacts, len(info.Funcs)),
	}
	for i := range t.BL {
		t.BL[i] = map[int64]uint64{}
		t.pathCache[i] = map[int64]*bl.Path{}
		t.facts[i].byID = map[int64]pathFacts{}
	}
	m.AddListener(t)
	return t
}

// EnableWPP turns on whole-program-path recording (block-level trace,
// SEQUITUR-compressed). Expensive; intended for validation runs.
func (t *Tracer) EnableWPP() { t.WPP = NewGrammar() }

func (t *Tracer) setErr(err error) {
	if t.Err == nil && err != nil {
		t.Err = err
	}
}

// path resolves a function path id with caching.
func (t *Tracer) path(fi *profile.FuncInfo, id int64) *bl.Path {
	if p, ok := t.pathCache[fi.Index][id]; ok {
		return p
	}
	p, err := fi.DAG.PathForID(id)
	if err != nil {
		t.setErr(err)
		return nil
	}
	t.pathCache[fi.Index][id] = p
	return p
}

// factsOf returns the cached facts of path id of fi, computing them on
// first use: one path reconstruction and one bl.AnalyzeLoop per loop.
func (t *Tracer) factsOf(fi *profile.FuncInfo, id int64) pathFacts {
	ff := &t.facts[fi.Index]
	if pf, ok := ff.byID[id]; ok {
		return pf
	}
	pf := pathFacts{endLoop: -1, row: int32(len(ff.seq))}
	if len(fi.Loops) > 0 {
		p := t.path(fi, id)
		for _, li := range fi.Loops {
			seq := int32(-1)
			if p != nil {
				if occ, ok := bl.AnalyzeLoop(p, li.LP, fi.DAG); ok && occ.Full && occ.SeqIndex >= 0 {
					seq = int32(occ.SeqIndex)
				}
			}
			ff.seq = append(ff.seq, seq)
		}
		if p != nil {
			if be, ok := p.EndBackedge(); ok {
				if li := fi.LoopOfBackedge[be]; li != nil {
					pf.endLoop = int32(li.Index)
				}
			}
		}
	}
	ff.byID[id] = pf
	return pf
}

// fullSeq returns the index of loop's full iteration sequence held by the
// path with facts pf, or -1 if it holds none.
func (t *Tracer) fullSeq(fi *profile.FuncInfo, pf pathFacts, loop int) int {
	return int(t.facts[fi.Index].seq[int(pf.row)+loop])
}

// OnEnter implements interp.Listener.
func (t *Tracer) OnEnter(fr *interp.Frame) {
	fi := t.Info.OfFunc(fr.Fn)
	for len(t.frames) <= fr.Depth {
		t.frames = append(t.frames, &frState{})
	}
	fs := t.frames[fr.Depth]
	fs.reset(fi)
	fs.first, fs.haveFirst = t.pending, t.havePending
	t.havePending = false
	if t.WPP != nil {
		t.WPP.Append(t.wppSymbol(fi, int(fi.G.Entry())))
	}
}

// OnEdge implements interp.Listener.
func (t *Tracer) OnEdge(fr *interp.Frame, from, to int) {
	fs := t.frames[fr.Depth]
	// Loop exit edges flush the runtime's windows before the walker
	// consumes the edge; the chains close with the crossing's descriptor —
	// already captured, or pending until the in-flight path completes.
	for i := range fs.loopSt {
		st := &fs.loopSt[i]
		if !st.awaiting {
			continue
		}
		l := fs.fi.Loops[i].Loop
		if !l.Contains(cfg.NodeID(from)) || l.Contains(cfg.NodeID(to)) {
			continue
		}
		if st.haveDesc {
			t.closeChains(fs, i, st, st.desc)
		} else {
			st.pendExit = true
		}
		st.awaiting, st.haveDesc = false, false
	}
	inst, done, err := fs.w.Step(cfg.NodeID(to))
	if err != nil {
		t.setErr(err)
		return
	}
	if t.WPP != nil {
		t.WPP.Append(t.wppSymbol(fs.fi, to))
	}
	if done {
		t.completed(fs, inst)
		fs.cur = instRec{}
	}
}

// OnCall implements interp.Listener.
func (t *Tracer) OnCall(caller *interp.Frame, site int, calleeFr *interp.Frame) {
	fs := t.frames[caller.Depth]
	cs := fs.fi.CallSiteOfBlock[cfg.NodeID(site)]
	if cs == nil {
		t.setErr(errNoSite(fs.fi, site))
		return
	}
	calleeIdx := t.Info.OfFunc(calleeFr.Fn).Index
	t.Calls[profile.CallKey{Caller: fs.fi.Index, Site: cs.Index, Callee: calleeIdx}]++
	// The caller's in-flight path participates in a Type I pair (it will
	// form when the callee's first path completes).
	fs.cur.proc = true
	t.pending = pendT1{caller: fs.fi.Index, site: cs.Index, prefix: fs.w.PartialID()}
	t.havePending = true
}

// OnExit implements interp.Listener.
func (t *Tracer) OnExit(fr *interp.Frame) {
	fs := t.frames[fr.Depth]
	inst, err := fs.w.Finish()
	if err != nil {
		t.setErr(err)
		return
	}
	fs.lastID = inst.PathID
	t.completed(fs, inst)
	if fr.Depth == 0 {
		// main's final path: no Type II crossing can mark it anymore.
		t.tally(&fs.cur)
	}
}

// OnReturn implements interp.Listener.
func (t *Tracer) OnReturn(calleeFr, callerFr *interp.Frame, site int) {
	calleeFS := t.frames[calleeFr.Depth]
	callerFS := t.frames[callerFr.Depth]
	cs := callerFS.fi.CallSiteOfBlock[cfg.NodeID(site)]
	if cs == nil {
		t.setErr(errNoSite(callerFS.fi, site))
		return
	}
	// The callee's exit path is the first component of a Type II pair.
	calleeFS.cur.proc = true
	t.tally(&calleeFS.cur)
	// The caller's resumed path is the second component.
	callerFS.cur.proc = true
	callerFS.pendII = append(callerFS.pendII, pendT2{
		site:   cs.Index,
		callee: calleeFS.fi.Index,
		q:      calleeFS.lastID,
	})
}

// completed processes one finished BL path instance of frame state fs.
func (t *Tracer) completed(fs *frState, inst bl.Instance) {
	fi := fs.fi
	t.BL[fi.Index][inst.PathID]++
	pf := t.factsOf(fi, inst.PathID)

	// Type I: the frame's first completed path closes the pending
	// crossing.
	if fs.haveFirst {
		t.T1[T1AdjKey{
			Caller: fs.first.caller, Site: fs.first.site,
			Callee: fi.Index, Prefix: fs.first.prefix, Q: inst.PathID,
		}]++
		fs.cur.proc = true
		fs.haveFirst = false
	}

	// Type II: the enclosing path of earlier returns has completed.
	for _, p := range fs.pendII {
		t.T2[T2AdjKey{
			Caller: fi.Index, Site: p.site, Callee: p.callee,
			Q: p.q, CallerPath: inst.PathID,
		}]++
	}
	fs.pendII = fs.pendII[:0]

	// Multi-iteration chain recording. A pending exit flush resolves
	// first (its descriptor is this path); then a completion at a loop's
	// own backedge closes that loop's in-progress crossing and opens a new
	// window; and for every other loop awaiting a descriptor, this path —
	// the first to complete since activation — is it.
	beLoop := -1
	if !inst.AtExit {
		beLoop = int(pf.endLoop)
	}
	for i := range fs.loopSt {
		st := &fs.loopSt[i]
		if st.pendExit {
			t.closeChains(fs, i, st, inst.PathID)
			st.pendExit = false
		}
		switch {
		case i == beLoop:
			if st.awaiting {
				d := inst.PathID
				if st.haveDesc {
					d = st.desc
				}
				t.advanceChains(fs, i, st, d)
			}
			st.open = append(st.open, chainWin{base: inst.PathID})
			st.awaiting, st.haveDesc = true, false
		case st.awaiting && !st.haveDesc:
			st.desc, st.haveDesc = inst.PathID, true
		}
	}

	// Loop pairing with the previous backedge-terminated instance: an
	// interesting pair when both hold full iteration sequences of the
	// loop.
	if fs.haveBase {
		pb := &fs.pendBase
		t.LoopAdj[LoopAdjKey{Func: fi.Index, Loop: pb.loop, A: pb.id, B: inst.PathID}]++
		if pb.full && t.fullSeq(fi, pf, pb.loop) >= 0 {
			pb.rec.loop = true
			fs.cur.loop = true
		}
		t.tally(&pb.rec)
		fs.haveBase = false
	}
	if !inst.AtExit {
		if beLoop < 0 {
			t.setErr(errNoLoop(fi, inst.EndBackedge))
			return
		}
		fs.pendBase = pendLoop{
			loop: beLoop,
			id:   inst.PathID,
			full: t.fullSeq(fi, pf, beLoop) >= 0,
			rec:  fs.cur,
		}
		fs.haveBase = true
	}
	// Exit instances are tallied by OnExit (main) or OnReturn (callees).
}

// closeChains appends the final crossing descriptor d to every open window
// of loop and records them all as chains (truncated or not) — the tracer's
// analogue of the runtime ring's FlushAll.
func (t *Tracer) closeChains(fs *frState, loop int, st *loopTraceState, d int64) {
	for _, w := range st.open {
		w.succ[w.n] = d
		w.n++
		t.LoopChain[LoopChainKey{Func: fs.fi.Index, Loop: loop, Base: w.base, N: w.n, Succ: w.succ}]++
	}
	st.open = st.open[:0]
}

// advanceChains appends crossing descriptor d to every open window of loop
// and records those reaching the maximum width — the tracer's analogue of
// the runtime ring's Cross.
func (t *Tracer) advanceChains(fs *frState, loop int, st *loopTraceState, d int64) {
	kept := st.open[:0]
	for _, w := range st.open {
		w.succ[w.n] = d
		w.n++
		if w.n >= olpath.MaxIters-1 {
			t.LoopChain[LoopChainKey{Func: fs.fi.Index, Loop: loop, Base: w.base, N: w.n, Succ: w.succ}]++
		} else {
			kept = append(kept, w)
		}
	}
	st.open = kept
}

func (t *Tracer) tally(r *instRec) {
	t.Attr.Total++
	switch {
	case r.proc:
		t.Attr.Proc++
	case r.loop:
		t.Attr.LoopOnly++
	}
}

func (t *Tracer) wppSymbol(fi *profile.FuncInfo, block int) int32 {
	return int32(fi.Index<<16 | block)
}

type errNoSiteT struct {
	fn    string
	block int
}

func (e errNoSiteT) Error() string {
	return "trace: block " + e.fn + " has no call-site info"
}

func errNoSite(fi *profile.FuncInfo, block int) error {
	return errNoSiteT{fn: fi.Fn.Name, block: block}
}

type errNoLoopT struct{ fn string }

func (e errNoLoopT) Error() string { return "trace: backedge without loop in " + e.fn }

func errNoLoop(fi *profile.FuncInfo, be cfg.Edge) error { return errNoLoopT{fn: fi.Fn.Name} }
