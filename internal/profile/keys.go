package profile

// This file defines the counter key types exchanged between the
// instrumented runtime, the ground-truth tracer, and the estimators. All
// indices are static: Func/Caller/Callee are program function indices, Loop
// is the loop's index within its function, Site is the call site's index
// within the caller.

// LoopKey identifies one overlapping-loop-path counter: a BL path Base that
// ended at a backedge of loop (Func, Loop), extended across the backedge by
// the route encoded in Ext (an encoding of the loop's degree-k extension
// region). Full reports that the following iteration completed a full
// header-to-tail sequence — when it did, the counter contributes to the
// paper's OF sums; truncated extensions (the loop was exited mid-body) are
// kept separate so the estimation equalities stay exact on loops with
// mid-body exits. A key spans the paper's two-iteration window: Base is the
// `ro` register's path, Ext the `ol` route of the one crossing after it.
type LoopKey struct {
	Func, Loop int
	Base, Ext  int64
	Full       bool
}

// TypeIKey identifies one Type I interprocedural counter: the caller prefix
// (register value Prefix, unique per route to the call site) concatenated
// with the callee-entry extension route Ext. This is the paper's four-tuple
// count[func][callsite][r][ro] with the callee path cut at degree k.
type TypeIKey struct {
	Caller, Site, Callee int
	Prefix, Ext          int64
}

// TypeIIKey identifies one Type II interprocedural counter: callee BL path
// Path (ending at the callee's exit) concatenated with the caller-suffix
// extension route Ext rooted at the call-site block.
type TypeIIKey struct {
	Caller, Site, Callee int
	Path, Ext            int64
}

// CallKey identifies a (caller, call site, callee) triple for call counts —
// the paper's C.
type CallKey struct {
	Caller, Site, Callee int
}

// Counters aggregates everything one profiled run collects.
type Counters struct {
	// BL holds per-function Ball-Larus path profiles.
	BL []map[int64]uint64
	// Loop holds overlapping-loop-path counters.
	Loop map[LoopKey]uint64
	// TypeI and TypeII hold the interprocedural counters.
	TypeI  map[TypeIKey]uint64
	TypeII map[TypeIIKey]uint64
	// Calls holds per-site-per-callee call counts.
	Calls map[CallKey]uint64
}

// NewCounters allocates empty counters for a program with n functions.
func NewCounters(n int) *Counters {
	c := &Counters{
		BL:     make([]map[int64]uint64, n),
		Loop:   map[LoopKey]uint64{},
		TypeI:  map[TypeIKey]uint64{},
		TypeII: map[TypeIIKey]uint64{},
		Calls:  map[CallKey]uint64{},
	}
	for i := range c.BL {
		c.BL[i] = map[int64]uint64{}
	}
	return c
}
