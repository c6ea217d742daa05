package profile

// ArenaStore is the default counter store: per overlap region (loop,
// Type I entry, Type II suffix) it lays the region's counters out behind a
// perfect (base, route) slot mapping, so the hot increment path is one
// multiply-add and one array bump instead of a tuple-keyed map operation —
// the paper's count[callee][callsite][r][ro] arrays indexed by the path
// registers.
//
// Slots live in pages of pageSize counters, each allocated on its first
// write (pagedSlots), so a region's memory follows the counters a run
// touches rather than its static cardinality: a region of 2^16 slots of
// which a run reaches one costs its page table and one page.
//
// Sizing rests on a monotonicity property of the extension regions: the
// kept-edge set of a degree-k region only grows with k (an edge is kept iff
// the minimum predicate depth of its source is <= k, and depth does not
// depend on k), so the route count Routes(k) is monotone in k. A store
// sized from the degree-k regions (NewArenaStoreK) therefore accepts every
// key a degree-k run produces, and one sized by each region's maximum
// useful degree (NewArenaStore) accepts the keys of any instrument.Config.
//
// Regions whose slot product exceeds ArenaSlotLimit, regions whose
// extension cannot be built, indirect call sites (no static callee
// dimension), and any out-of-range key fall back to tuple-keyed overflow
// maps, so the store is total: it accepts exactly the increments the other
// stores accept and materializes an identical *Counters.

// ArenaSlotLimit bounds the dense slot count of one arena region; regions
// with a larger static cardinality fall back to a map so pathological route
// counts cannot blow up a region's page table.
const ArenaSlotLimit = 1 << 16

// pageBits sets the arena page size: pages hold 1<<pageBits counters.
const pageBits = 6

// pageSize is the number of counters in one arena page.
const pageSize = 1 << pageBits

// page is one lazily allocated block of counters.
type page [pageSize]uint64

// pagedSlots is a dense counter vector stored as a page table: slot s lives
// at [s>>pageBits][s%pageSize], and a nil entry is a page no write has
// touched yet.
type pagedSlots []*page

// newPagedSlots returns an all-zero vector of n slots with no page
// allocated.
func newPagedSlots(n int64) pagedSlots {
	return make(pagedSlots, (n+pageSize-1)>>pageBits)
}

// at returns slot's counter, allocating its page on first use. slot must
// lie within the page table.
func (p pagedSlots) at(slot int64) *uint64 {
	pg := p[slot>>pageBits]
	if pg == nil {
		pg = new(page)
		p[slot>>pageBits] = pg
	}
	return &pg[slot&(pageSize-1)]
}

// each calls fn for every non-zero counter, in slot order.
func (p pagedSlots) each(fn func(slot int64, n uint64)) {
	for i, pg := range p {
		if pg == nil {
			continue
		}
		for j, n := range pg {
			if n != 0 {
				fn(int64(i)<<pageBits|int64(j), n)
			}
		}
	}
}

// reset zeroes every allocated page, keeping it allocated for reuse.
func (p pagedSlots) reset() {
	for _, pg := range p {
		if pg != nil {
			*pg = page{}
		}
	}
}

// loopArena is the dense counter block of one (func, loop) region: key
// (base, ext, full) lives at slot (base*routes + ext)*2 + full.
type loopArena struct {
	total  int64 // base-path dimension (caller's BL path count)
	routes int64 // route dimension (the sizing degree's extension routes)
	slots  pagedSlots
}

// slot maps a key into the arena's dense index; ok is false when the key's
// coordinates are out of range and it needs the overflow map.
func (a *loopArena) slot(k LoopKey) (slot int64, ok bool) {
	if k.Base < 0 || k.Base >= a.total || k.Ext < 0 || k.Ext >= a.routes {
		return 0, false
	}
	slot = (k.Base*a.routes + k.Ext) * 2
	if k.Full {
		slot++
	}
	return slot, true
}

// key decodes a dense slot index back into the counter key it encodes.
func (a *loopArena) key(fn, loop int, slot int64) LoopKey {
	rest := slot >> 1
	return LoopKey{Func: fn, Loop: loop, Base: rest / a.routes, Ext: rest % a.routes, Full: slot&1 == 1}
}

// tupleArena is the dense counter block of one call site's Type I or
// Type II family: slot = a*dimB + b, valid only for the site's static
// callee.
type tupleArena struct {
	callee int
	dimA   int64 // Type I: caller prefix ids; Type II: callee path ids
	dimB   int64 // route dimension of the region's extension
	slots  pagedSlots
}

// slot maps (a, b) into the arena's dense index; ok is false for another
// callee or out-of-range coordinates.
func (t *tupleArena) slot(callee int, a, b int64) (int64, bool) {
	if t == nil || t.callee != callee || a < 0 || a >= t.dimA || b < 0 || b >= t.dimB {
		return 0, false
	}
	return a*t.dimB + b, true
}

// DenseBLLimit bounds the arena's per-function dense Ball-Larus vector;
// functions with more static paths keep their BL counters in the sparse
// overlay so pathological path counts cannot blow up memory.
const DenseBLLimit = 1 << 16

// ArenaStore implements CounterStore with paged per-region arenas and map
// overflow.
type ArenaStore struct {
	// Ball-Larus: a paged vector per function with a sparse overlay for
	// functions above DenseBLLimit and out-of-range ids.
	dense  []pagedSlots
	sparse []map[int64]uint64

	loops  [][]*loopArena  // [func][loop], nil entries = overflow
	typeI  [][]*tupleArena // [caller][site]
	typeII [][]*tupleArena // [caller][site]
	calls  [][][]uint64    // [caller][site][callee]

	loopOv   map[LoopKey]uint64
	typeIOv  map[TypeIKey]uint64
	typeIIOv map[TypeIIKey]uint64
	callsOv  map[CallKey]uint64

	// cached holds the memoized materialization (nil counters: none).
	cached NestedStore
}

// NewArenaStore sizes every region by its maximum useful degree, so the
// store accepts the keys of any configuration. It never fails: a region
// that cannot be densely sized simply starts in overflow.
func NewArenaStore(info *Info) *ArenaStore {
	return NewArenaStoreK(info, info.MaxDegree())
}

// NewArenaStoreK sizes the store for degree-k runs from the same cached
// extension regions a degree-k instrumentation plan uses (k < 0: only
// Ball-Larus and call counters are dense). Keys of a larger degree still
// land, in overflow.
func NewArenaStoreK(info *Info, k int) *ArenaStore {
	n := len(info.Funcs)
	s := &ArenaStore{
		dense:    make([]pagedSlots, n),
		sparse:   make([]map[int64]uint64, n),
		loops:    make([][]*loopArena, n),
		typeI:    make([][]*tupleArena, n),
		typeII:   make([][]*tupleArena, n),
		calls:    make([][][]uint64, n),
		loopOv:   map[LoopKey]uint64{},
		typeIOv:  map[TypeIKey]uint64{},
		typeIIOv: map[TypeIIKey]uint64{},
		callsOv:  map[CallKey]uint64{},
	}
	for f, fi := range info.Funcs {
		total := fi.DAG.Total()
		if total > 0 && total <= DenseBLLimit {
			s.dense[f] = newPagedSlots(total)
		}

		s.loops[f] = make([]*loopArena, len(fi.Loops))
		s.typeI[f] = make([]*tupleArena, len(fi.CallSites))
		s.typeII[f] = make([]*tupleArena, len(fi.CallSites))
		s.calls[f] = make([][]uint64, len(fi.CallSites))
		for c := range fi.CallSites {
			s.calls[f][c] = make([]uint64, n)
		}
		if k < 0 {
			continue
		}

		for l, li := range fi.Loops {
			x, err := li.Ext(li.EffectiveK(k))
			if err != nil {
				continue
			}
			routes := x.Routes()
			if total <= 0 || total > ArenaSlotLimit || routes <= 0 || routes > ArenaSlotLimit ||
				total*routes*2 > ArenaSlotLimit {
				continue
			}
			s.loops[f][l] = &loopArena{total: total, routes: routes, slots: newPagedSlots(total * routes * 2)}
		}

		for c, cs := range fi.CallSites {
			if cs.Indirect || cs.Callee < 0 || cs.Callee >= n {
				continue
			}
			callee := info.Funcs[cs.Callee]
			// Type I: (caller prefix id) x (callee entry routes).
			if x, err := callee.EntryExt(callee.EffectiveKEntry(k)); err == nil {
				s.typeI[f][c] = newTupleArena(cs.Callee, total, x.Routes())
			}
			// Type II: (callee path id) x (caller suffix routes).
			if x, err := cs.SuffixExt(cs.EffectiveKSuffix(k)); err == nil {
				s.typeII[f][c] = newTupleArena(cs.Callee, callee.DAG.Total(), x.Routes())
			}
		}
	}
	return s
}

// newTupleArena returns a call-site arena of dimA x dimB slots, or nil when
// the product is empty or exceeds ArenaSlotLimit.
func newTupleArena(callee int, dimA, dimB int64) *tupleArena {
	if dimA <= 0 || dimB <= 0 || dimA > ArenaSlotLimit || dimB > ArenaSlotLimit || dimA*dimB > ArenaSlotLimit {
		return nil
	}
	return &tupleArena{callee: callee, dimA: dimA, dimB: dimB, slots: newPagedSlots(dimA * dimB)}
}

// Reset zeroes every counter for reuse by another run of the same
// configuration: allocated pages are zeroed in place and the overflow maps
// cleared, both keeping their capacity. A *Counters materialized before
// the reset is unaffected.
func (s *ArenaStore) Reset() {
	s.cached.c = nil
	for f := range s.dense {
		s.dense[f].reset()
		clear(s.sparse[f])
		for _, a := range s.loops[f] {
			if a != nil {
				a.slots.reset()
			}
		}
		for c := range s.calls[f] {
			if a := s.typeI[f][c]; a != nil {
				a.slots.reset()
			}
			if a := s.typeII[f][c]; a != nil {
				a.slots.reset()
			}
			clear(s.calls[f][c])
		}
	}
	clear(s.loopOv)
	clear(s.typeIOv)
	clear(s.typeIIOv)
	clear(s.callsOv)
}

// blCounter returns the dense counter of fn's Ball-Larus path, nil when the
// id takes the sparse overlay.
func (s *ArenaStore) blCounter(fn int, path int64) *uint64 {
	if d := s.dense[fn]; path >= 0 && path < int64(len(d))<<pageBits {
		return d.at(path)
	}
	return nil
}

// sparseBL returns fn's sparse overlay, allocating it on first use.
func (s *ArenaStore) sparseBL(fn int) map[int64]uint64 {
	m := s.sparse[fn]
	if m == nil {
		m = map[int64]uint64{}
		s.sparse[fn] = m
	}
	return m
}

// loopCounter returns the dense counter of a loop key, nil when the key
// takes the overflow map.
func (s *ArenaStore) loopCounter(k LoopKey) *uint64 {
	if k.Func >= 0 && k.Func < len(s.loops) && k.Loop >= 0 && k.Loop < len(s.loops[k.Func]) {
		if a := s.loops[k.Func][k.Loop]; a != nil {
			if slot, ok := a.slot(k); ok {
				return a.slots.at(slot)
			}
		}
	}
	return nil
}

// typeICounter returns the dense counter of a Type I key, nil when the key
// takes the overflow map.
func (s *ArenaStore) typeICounter(k TypeIKey) *uint64 {
	if k.Caller >= 0 && k.Caller < len(s.typeI) && k.Site >= 0 && k.Site < len(s.typeI[k.Caller]) {
		a := s.typeI[k.Caller][k.Site]
		if slot, ok := a.slot(k.Callee, k.Prefix, k.Ext); ok {
			return a.slots.at(slot)
		}
	}
	return nil
}

// typeIICounter returns the dense counter of a Type II key, nil when the
// key takes the overflow map.
func (s *ArenaStore) typeIICounter(k TypeIIKey) *uint64 {
	if k.Caller >= 0 && k.Caller < len(s.typeII) && k.Site >= 0 && k.Site < len(s.typeII[k.Caller]) {
		a := s.typeII[k.Caller][k.Site]
		if slot, ok := a.slot(k.Callee, k.Path, k.Ext); ok {
			return a.slots.at(slot)
		}
	}
	return nil
}

// callCounter returns the dense counter of a call key, nil when the key
// takes the overflow map.
func (s *ArenaStore) callCounter(k CallKey) *uint64 {
	if k.Caller >= 0 && k.Caller < len(s.calls) && k.Site >= 0 && k.Site < len(s.calls[k.Caller]) &&
		k.Callee >= 0 && k.Callee < len(s.calls[k.Caller][k.Site]) {
		return &s.calls[k.Caller][k.Site][k.Callee]
	}
	return nil
}

// IncBL counts one completion of fn's Ball-Larus path, dense when the
// function has a vector, the sparse overlay otherwise.
func (s *ArenaStore) IncBL(fn int, path int64) {
	s.cached.c = nil
	if c := s.blCounter(fn, path); c != nil {
		*c++
		return
	}
	s.sparseBL(fn)[path]++
}

// IncLoop counts one loop-crossing path, in the loop's perfect slot
// mapping when the key is in range, the overflow map otherwise.
func (s *ArenaStore) IncLoop(k LoopKey) {
	s.cached.c = nil
	if c := s.loopCounter(k); c != nil {
		*c++
		return
	}
	s.loopOv[k]++
}

// IncTypeI counts one Type I path, in the call site's arena when the key
// is in range, the overflow map otherwise.
func (s *ArenaStore) IncTypeI(k TypeIKey) {
	s.cached.c = nil
	if c := s.typeICounter(k); c != nil {
		*c++
		return
	}
	s.typeIOv[k]++
}

// IncTypeII counts one Type II path, in the call site's arena when the
// key is in range, the overflow map otherwise.
func (s *ArenaStore) IncTypeII(k TypeIIKey) {
	s.cached.c = nil
	if c := s.typeIICounter(k); c != nil {
		*c++
		return
	}
	s.typeIIOv[k]++
}

// IncCall counts one call-site transition, dense when in range.
func (s *ArenaStore) IncCall(k CallKey) {
	s.cached.c = nil
	if c := s.callCounter(k); c != nil {
		*c++
		return
	}
	s.callsOv[k]++
}

// AddBL folds n completions of fn's Ball-Larus path in, saturating.
func (s *ArenaStore) AddBL(fn int, path int64, n uint64) {
	s.cached.c = nil
	if c := s.blCounter(fn, path); c != nil {
		*c = SatAdd(*c, n)
		return
	}
	m := s.sparseBL(fn)
	m[path] = SatAdd(m[path], n)
}

// AddLoop folds n loop-path completions in, saturating.
func (s *ArenaStore) AddLoop(k LoopKey, n uint64) {
	s.cached.c = nil
	if c := s.loopCounter(k); c != nil {
		*c = SatAdd(*c, n)
		return
	}
	s.loopOv[k] = SatAdd(s.loopOv[k], n)
}

// AddTypeI folds n Type I path completions in, saturating.
func (s *ArenaStore) AddTypeI(k TypeIKey, n uint64) {
	s.cached.c = nil
	if c := s.typeICounter(k); c != nil {
		*c = SatAdd(*c, n)
		return
	}
	s.typeIOv[k] = SatAdd(s.typeIOv[k], n)
}

// AddTypeII folds n Type II path completions in, saturating.
func (s *ArenaStore) AddTypeII(k TypeIIKey, n uint64) {
	s.cached.c = nil
	if c := s.typeIICounter(k); c != nil {
		*c = SatAdd(*c, n)
		return
	}
	s.typeIIOv[k] = SatAdd(s.typeIIOv[k], n)
}

// AddCall folds n call-site transitions in, saturating.
func (s *ArenaStore) AddCall(k CallKey, n uint64) {
	s.cached.c = nil
	if c := s.callCounter(k); c != nil {
		*c = SatAdd(*c, n)
		return
	}
	s.callsOv[k] = SatAdd(s.callsOv[k], n)
}

// Counters materializes (and memoizes) the canonical nested-map form,
// decoding arena slots back into keys; only non-zero counters appear. The
// result is a fresh table: later increments and Reset leave it untouched.
func (s *ArenaStore) Counters() *Counters {
	if s.cached.c == nil {
		s.cached.c = NewCounters(len(s.dense))
		s.AddTo(&s.cached)
	}
	return s.cached.c
}

// AddTo folds every non-zero counter of s into dst through its saturating
// bulk adds, decoding arena slots back into keys: the fold merge.IntoStore
// makes from a snapshot, made here straight from the pages. s is left as it
// was.
func (s *ArenaStore) AddTo(dst BulkStore) {
	for f, d := range s.dense {
		d.each(func(id int64, n uint64) { dst.AddBL(f, id, n) })
		for id, n := range s.sparse[f] {
			dst.AddBL(f, id, n)
		}
	}
	for f, las := range s.loops {
		for l, a := range las {
			if a == nil {
				continue
			}
			a.slots.each(func(slot int64, n uint64) { dst.AddLoop(a.key(f, l, slot), n) })
		}
	}
	for f, tas := range s.typeI {
		for site, a := range tas {
			if a == nil {
				continue
			}
			a.slots.each(func(slot int64, n uint64) {
				dst.AddTypeI(TypeIKey{
					Caller: f, Site: site, Callee: a.callee,
					Prefix: slot / a.dimB, Ext: slot % a.dimB,
				}, n)
			})
		}
	}
	for f, tas := range s.typeII {
		for site, a := range tas {
			if a == nil {
				continue
			}
			a.slots.each(func(slot int64, n uint64) {
				dst.AddTypeII(TypeIIKey{
					Caller: f, Site: site, Callee: a.callee,
					Path: slot / a.dimB, Ext: slot % a.dimB,
				}, n)
			})
		}
	}
	for f, sites := range s.calls {
		for site, callees := range sites {
			for callee, n := range callees {
				if n != 0 {
					dst.AddCall(CallKey{Caller: f, Site: site, Callee: callee}, n)
				}
			}
		}
	}
	for k, n := range s.loopOv {
		dst.AddLoop(k, n)
	}
	for k, n := range s.typeIOv {
		dst.AddTypeI(k, n)
	}
	for k, n := range s.typeIIOv {
		dst.AddTypeII(k, n)
	}
	for k, n := range s.callsOv {
		dst.AddCall(k, n)
	}
}
