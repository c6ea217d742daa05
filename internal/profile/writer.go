package profile

// ArenaWriter is an ArenaStore's write view for an execution engine that
// counts as it runs. Each method is one counter family's dense case — key
// in range, page already allocated — taking scalar arguments and no key
// struct, small enough to inline into the engine's dispatch code, and
// without the memo invalidation the Inc methods pay per increment. A
// method reports false when it did not count: the key needs a first write
// to a page, the sparse Ball-Larus overlay or an overflow map, and the
// caller counts it through the store's matching Inc method instead.
//
// Function, loop and call-site indices must be those of the Info the store
// was built for. Taking the view drops the store's memoized Counters, so
// hold it for one run and materialize afterwards.
type ArenaWriter ArenaStore

// Writer returns the store's write view, dropping its memoized Counters.
func (s *ArenaStore) Writer() *ArenaWriter {
	s.cached.c = nil
	return (*ArenaWriter)(s)
}

// BL counts one completion of fn's Ball-Larus path.
func (w *ArenaWriter) BL(fn int, path int64) bool {
	d := w.dense[fn]
	if uint64(path) >= uint64(len(d))<<pageBits {
		return false
	}
	pg := d[path>>pageBits]
	if pg == nil {
		return false
	}
	pg[path&(pageSize-1)]++
	return true
}

// Loop counts one crossing of loop (fn, loop): the window based on path
// base with route ext, full or truncated.
func (w *ArenaWriter) Loop(fn, loop int, base, ext int64, full bool) bool {
	a := w.loops[fn][loop]
	if a == nil || uint64(base) >= uint64(a.total) || uint64(ext) >= uint64(a.routes) {
		return false
	}
	slot := (base*a.routes + ext) << 1
	if full {
		slot |= 1
	}
	pg := a.slots[slot>>pageBits]
	if pg == nil {
		return false
	}
	pg[slot&(pageSize-1)]++
	return true
}

// TypeI counts one Type I path: the caller prefix at the call site
// followed by the callee-entry route ext.
func (w *ArenaWriter) TypeI(caller, site, callee int, prefix, ext int64) bool {
	return w.typeI[caller][site].bump(callee, prefix, ext)
}

// TypeII counts one Type II path: the callee's path followed by the
// caller-suffix route ext.
func (w *ArenaWriter) TypeII(caller, site, callee int, path, ext int64) bool {
	return w.typeII[caller][site].bump(callee, path, ext)
}

// Call counts one call from caller's site to callee.
func (w *ArenaWriter) Call(caller, site, callee int) {
	w.calls[caller][site][callee]++
}

// bump counts (a, b) in the arena's allocated page, reporting false for
// another callee, out-of-range coordinates or a page not yet allocated.
func (t *tupleArena) bump(callee int, a, b int64) bool {
	if t == nil || t.callee != callee || uint64(a) >= uint64(t.dimA) || uint64(b) >= uint64(t.dimB) {
		return false
	}
	slot := a*t.dimB + b
	pg := t.slots[slot>>pageBits]
	if pg == nil {
		return false
	}
	pg[slot&(pageSize-1)]++
	return true
}
