package olpath

import "pathprof/internal/cfg"

// Tracker is the run-time state machine of one extension region: the `ro` /
// `ol` register pair of the paper's instrumentation, generalized. The
// instrumented interpreter drives one tracker per overlapping-path source
// (loop, call site, return site).
//
// Lifecycle: Activate fires when the crossing event happens (backedge taken,
// call made, return taken) with the tracker standing at the root; Step fires
// on every subsequent region edge the execution takes; Finalize fires when
// the overlapped path component completes (next backedge, loop exit, end of
// the callee's first path, end of the caller's resumed path) and yields the
// route encoding accumulated so far.
type Tracker struct {
	X *Ext
	// Active reports whether an extension is in flight.
	Active bool
	// Frozen reports that the extension reached its (K+1)-th
	// predicate-like block and stopped accumulating.
	Frozen bool
	// Broken reports that the extension was interrupted by a crossing
	// event that ends the overlapped component mid-way (another loop's
	// backedge): the component can no longer be a complete iteration.
	Broken bool
	// Accum is the route encoding accumulated so far.
	Accum int64
	// Preds counts predicate-like blocks seen, inclusive of the root.
	Preds int
}

// MarkBroken freezes the tracker and flags the overlapped component as
// interrupted (a nested loop's backedge fired while this extension was in
// flight).
//
// Its scope is exactly one crossing: the route accumulated before the
// interruption is kept — Finalize still returns it, and the crossing is
// recorded with its completeness bit forced to false — and the next
// Activate clears Broken, so the following crossing starts clean. Crossings
// recorded before or after the interruption keep their own completeness
// bits.
func (t *Tracker) MarkBroken() {
	if t.Active {
		t.Frozen = true
		t.Broken = true
	}
}

// NewTracker returns an inactive tracker for x.
func NewTracker(x *Ext) *Tracker { return &Tracker{X: x} }

// Activate begins an extension at the root block.
func (t *Tracker) Activate() {
	t.Active = true
	t.Accum = 0
	t.Broken = false
	t.Preds = t.X.RootDepth()
	t.Frozen = t.Preds >= t.X.K+1
}

// Step advances the extension along edge e. Inactive or frozen trackers
// ignore steps; active ones accumulate the edge's route value and freeze on
// reaching the (K+1)-th predicate-like block. Edges outside the kept OG
// (DNI edges) freeze the tracker: no kept route continues there, matching
// the paper's uninstrumented-edge semantics.
func (t *Tracker) Step(e cfg.Edge) {
	if !t.Active || t.Frozen {
		return
	}
	v, ok := t.X.val[e]
	if !ok {
		t.Frozen = true
		return
	}
	t.Accum += v
	if t.X.D.PredicateLike(e.To) {
		t.Preds++
		if t.Preds >= t.X.K+1 {
			t.Frozen = true
		}
	}
}

// Finalize ends the extension and returns its route encoding.
func (t *Tracker) Finalize() int64 {
	accum := t.Accum
	t.Active = false
	t.Frozen = false
	t.Broken = false
	t.Accum = 0
	t.Preds = 0
	return accum
}
