package profile

// This file defines the CounterStore abstraction: the write interface the
// instrumented runtime increments through, decoupled from the storage
// layout. Two layouts are provided. ArenaStore (arena.go), the default,
// indexes paged per-region arrays by the path registers, as the paper's
// count[callee][callsite][r][ro] arrays do. NestedStore is the canonical
// materialization — hash maps keyed by the counter tuples — and the
// reference the arena is checked against. Both materialize into the
// canonical *Counters form that serialization and estimation consume, and
// they are proven increment-for-increment identical by the differential
// oracle.

// StoreKind selects a CounterStore layout.
type StoreKind int

const (
	// StoreArena is the paged dense-arena layout (per-region perfect slot
	// mappings with map overflow; see arena.go) and the zero value, so
	// every zero-valued option defaults to it.
	StoreArena StoreKind = iota
	// StoreNested is the nested-map layout.
	StoreNested
)

// String implements flag-friendly rendering.
func (k StoreKind) String() string {
	if k == StoreNested {
		return "nested"
	}
	return "arena"
}

// ParseStoreKind maps a CLI flag value to a StoreKind.
func ParseStoreKind(s string) (StoreKind, bool) {
	switch s {
	case "nested":
		return StoreNested, true
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
// one shard's) counters into a long-lived accumulator through. Both
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

// NewStore builds a store of the requested kind for info's program. An
// arena built here is sized for any degree (NewArenaStore); runs of one
// known degree size theirs with NewArenaStoreK.
func NewStore(kind StoreKind, info *Info) CounterStore {
	if kind == StoreNested {
		return NewNestedStore(len(info.Funcs))
	}
	return NewArenaStore(info)
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
