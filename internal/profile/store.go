package profile

// This file defines the CounterStore abstraction: the write interface the
// instrumented runtime increments through, decoupled from the storage
// layout. Three layouts are provided. ArenaStore (arena.go), the default,
// indexes paged per-region arrays by the path registers, as the paper's
// count[callee][callsite][r][ro] arrays do. NestedStore is the canonical
// materialization — hash maps keyed by the counter tuples. FlatStore keeps
// per-function Ball-Larus counters in a dense slice indexed by path id (BL
// ids are contiguous in [0, NumPaths)) and the tuple-keyed families in
// struct-keyed maps with preallocated capacity. All three materialize into
// the canonical *Counters form that serialization and estimation consume,
// and they are proven increment-for-increment identical by the
// cross-validation tests.

// StoreKind selects a CounterStore layout.
type StoreKind int

const (
	// StoreArena is the paged dense-arena layout (per-region perfect slot
	// mappings with map overflow; see arena.go) and the zero value, so
	// every zero-valued option defaults to it.
	StoreArena StoreKind = iota
	// StoreNested is the nested-map layout.
	StoreNested
	// StoreFlat is the dense/flat layout.
	StoreFlat
)

// String implements flag-friendly rendering.
func (k StoreKind) String() string {
	switch k {
	case StoreNested:
		return "nested"
	case StoreFlat:
		return "flat"
	default:
		return "arena"
	}
}

// ParseStoreKind maps a CLI flag value to a StoreKind.
func ParseStoreKind(s string) (StoreKind, bool) {
	switch s {
	case "nested":
		return StoreNested, true
	case "flat":
		return StoreFlat, true
	case "arena":
		return StoreArena, true
	}
	return StoreArena, false
}

// CounterStore receives the increments of one profiled run. Implementations
// need not be safe for concurrent use: every run owns its store.
type CounterStore interface {
	// IncBL counts one completed Ball-Larus path instance.
	IncBL(fn int, path int64)
	// IncLoop counts one overlapping-loop-path instance.
	IncLoop(k LoopKey)
	// IncTypeI counts one Type I interprocedural instance.
	IncTypeI(k TypeIKey)
	// IncTypeII counts one Type II interprocedural instance.
	IncTypeII(k TypeIIKey)
	// IncCall counts one (caller, site, callee) call.
	IncCall(k CallKey)
	// Counters materializes the canonical nested-map form.
	Counters() *Counters
}

// BulkStore is the aggregation extension of CounterStore: weighted,
// saturating adds, the write interface profile merging folds one run's (or
// one shard's) counters into a long-lived accumulator through. All three
// bundled stores implement it. Adds saturate at the uint64 maximum (see
// SatAdd) so fleet-scale aggregation degrades to a pinned ceiling instead
// of wrapping.
type BulkStore interface {
	CounterStore
	// AddBL adds n occurrences of one Ball-Larus path.
	AddBL(fn int, path int64, n uint64)
	// AddLoop adds n occurrences of one overlapping-loop-path counter.
	AddLoop(k LoopKey, n uint64)
	// AddTypeI adds n occurrences of one Type I counter.
	AddTypeI(k TypeIKey, n uint64)
	// AddTypeII adds n occurrences of one Type II counter.
	AddTypeII(k TypeIIKey, n uint64)
	// AddCall adds n occurrences of one call edge.
	AddCall(k CallKey, n uint64)
}

// NewStore builds a store of the requested kind for info's program,
// profiled with iters-iteration windows (2 is the classic two-iteration
// setting; values below 2 are treated as 2). Only the arena layout is
// sensitive to iters — its dense loop slots are sized for full-width
// multi-iteration keys — but every caller threads the axis through so a
// store always matches the run it collects. An arena built here is sized
// for any degree (NewArenaStore); runs of one known degree size theirs
// with NewArenaStoreK.
func NewStore(kind StoreKind, info *Info, iters int) CounterStore {
	switch kind {
	case StoreNested:
		return NewNestedStore(len(info.Funcs))
	case StoreFlat:
		return NewFlatStore(info)
	default:
		return NewArenaStore(info, iters)
	}
}

// NestedStore is the map-backed store; its Counters are live (no
// materialization cost).
type NestedStore struct {
	c *Counters
}

// NewNestedStore allocates a nested store for a program with n functions.
func NewNestedStore(n int) *NestedStore { return &NestedStore{c: NewCounters(n)} }

// IncBL counts one completion of fn's Ball-Larus path.
func (s *NestedStore) IncBL(fn int, path int64) { s.c.BL[fn][path]++ }

// IncLoop counts one loop-crossing overlapping path.
func (s *NestedStore) IncLoop(k LoopKey) { s.c.Loop[k]++ }

// IncTypeI counts one Type I (call-site entry) interprocedural path.
func (s *NestedStore) IncTypeI(k TypeIKey) { s.c.TypeI[k]++ }

// IncTypeII counts one Type II (return suffix) interprocedural path.
func (s *NestedStore) IncTypeII(k TypeIIKey) { s.c.TypeII[k]++ }

// IncCall counts one observed call-site transition.
func (s *NestedStore) IncCall(k CallKey) { s.c.Calls[k]++ }

// Counters returns the live counters (not a copy).
func (s *NestedStore) Counters() *Counters { return s.c }

// AddBL folds n completions of fn's Ball-Larus path in, saturating.
func (s *NestedStore) AddBL(fn int, path int64, n uint64) {
	s.c.BL[fn][path] = SatAdd(s.c.BL[fn][path], n)
}

// AddLoop folds n loop-path completions in, saturating.
func (s *NestedStore) AddLoop(k LoopKey, n uint64) { s.c.Loop[k] = SatAdd(s.c.Loop[k], n) }

// AddTypeI folds n Type I path completions in, saturating.
func (s *NestedStore) AddTypeI(k TypeIKey, n uint64) { s.c.TypeI[k] = SatAdd(s.c.TypeI[k], n) }

// AddTypeII folds n Type II path completions in, saturating.
func (s *NestedStore) AddTypeII(k TypeIIKey, n uint64) { s.c.TypeII[k] = SatAdd(s.c.TypeII[k], n) }

// AddCall folds n call-site transitions in, saturating.
func (s *NestedStore) AddCall(k CallKey, n uint64) { s.c.Calls[k] = SatAdd(s.c.Calls[k], n) }

// DenseBLLimit bounds the per-function dense Ball-Larus array; functions
// with more static paths fall back to a map so pathological path counts
// cannot blow up memory.
const DenseBLLimit = 1 << 16

// FlatStore is the dense/flat store.
type FlatStore struct {
	// dense[f] is the BL counter array of function f (nil = map
	// fallback); sparse[f] catches the fallback and any out-of-range id.
	dense  [][]uint64
	sparse []map[int64]uint64

	loop   map[LoopKey]uint64
	typeI  map[TypeIKey]uint64
	typeII map[TypeIIKey]uint64
	calls  map[CallKey]uint64

	cached *Counters
}

// NewFlatStore allocates a flat store sized from info's static counts: BL
// arrays sized by each function's NumPaths, tuple maps preallocated from
// the program's loop and call-site census.
func NewFlatStore(info *Info) *FlatStore {
	n := len(info.Funcs)
	s := &FlatStore{
		dense:  make([][]uint64, n),
		sparse: make([]map[int64]uint64, n),
	}
	var loops, sites int
	for i, fi := range info.Funcs {
		loops += len(fi.Loops)
		sites += len(fi.CallSites)
		if t := fi.DAG.Total(); t > 0 && t <= DenseBLLimit {
			s.dense[i] = make([]uint64, t)
		}
	}
	s.loop = make(map[LoopKey]uint64, 16*loops)
	s.typeI = make(map[TypeIKey]uint64, 16*sites)
	s.typeII = make(map[TypeIIKey]uint64, 16*sites)
	s.calls = make(map[CallKey]uint64, sites)
	return s
}

// IncBL counts one completion of fn's Ball-Larus path, in the dense
// array when the function has one, the sparse overflow map otherwise.
func (s *FlatStore) IncBL(fn int, path int64) {
	s.cached = nil
	if d := s.dense[fn]; d != nil && path >= 0 && path < int64(len(d)) {
		d[path]++
		return
	}
	m := s.sparse[fn]
	if m == nil {
		m = map[int64]uint64{}
		s.sparse[fn] = m
	}
	m[path]++
}

// IncLoop counts one loop-crossing overlapping path.
func (s *FlatStore) IncLoop(k LoopKey) {
	s.cached = nil
	s.loop[k]++
}

// IncTypeI counts one Type I (call-site entry) interprocedural path.
func (s *FlatStore) IncTypeI(k TypeIKey) {
	s.cached = nil
	s.typeI[k]++
}

// IncTypeII counts one Type II (return suffix) interprocedural path.
func (s *FlatStore) IncTypeII(k TypeIIKey) {
	s.cached = nil
	s.typeII[k]++
}

// IncCall counts one observed call-site transition.
func (s *FlatStore) IncCall(k CallKey) {
	s.cached = nil
	s.calls[k]++
}

// AddBL folds n completions of fn's Ball-Larus path in, saturating.
func (s *FlatStore) AddBL(fn int, path int64, n uint64) {
	s.cached = nil
	if d := s.dense[fn]; d != nil && path >= 0 && path < int64(len(d)) {
		d[path] = SatAdd(d[path], n)
		return
	}
	m := s.sparse[fn]
	if m == nil {
		m = map[int64]uint64{}
		s.sparse[fn] = m
	}
	m[path] = SatAdd(m[path], n)
}

// AddLoop folds n loop-path completions in, saturating.
func (s *FlatStore) AddLoop(k LoopKey, n uint64) {
	s.cached = nil
	s.loop[k] = SatAdd(s.loop[k], n)
}

// AddTypeI folds n Type I path completions in, saturating.
func (s *FlatStore) AddTypeI(k TypeIKey, n uint64) {
	s.cached = nil
	s.typeI[k] = SatAdd(s.typeI[k], n)
}

// AddTypeII folds n Type II path completions in, saturating.
func (s *FlatStore) AddTypeII(k TypeIIKey, n uint64) {
	s.cached = nil
	s.typeII[k] = SatAdd(s.typeII[k], n)
}

// AddCall folds n call-site transitions in, saturating.
func (s *FlatStore) AddCall(k CallKey, n uint64) {
	s.cached = nil
	s.calls[k] = SatAdd(s.calls[k], n)
}

// Counters materializes (and memoizes) the canonical nested-map form; only
// non-zero counters appear, so the result is indistinguishable from a
// NestedStore's.
func (s *FlatStore) Counters() *Counters {
	if s.cached != nil {
		return s.cached
	}
	c := NewCounters(len(s.dense))
	for f, d := range s.dense {
		for id, n := range d {
			if n != 0 {
				c.BL[f][int64(id)] = n
			}
		}
		for id, n := range s.sparse[f] {
			c.BL[f][id] = SatAdd(c.BL[f][id], n)
		}
	}
	for k, n := range s.loop {
		c.Loop[k] = n
	}
	for k, n := range s.typeI {
		c.TypeI[k] = n
	}
	for k, n := range s.typeII {
		c.TypeII[k] = n
	}
	for k, n := range s.calls {
		c.Calls[k] = n
	}
	s.cached = c
	return c
}
