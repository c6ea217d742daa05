package merge

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
)

// mergeSrc exercises every counter family: a randomized loop (loop-path
// counters), calls under branches (Type I/II counters), and enough branching
// that different seeds profile different paths.
const mergeSrc = `
func helper(x) {
	if (x % 2 == 0) { return x + 1; }
	return x - 1;
}
func main() {
	var s = 0;
	for (var i = 0; i < 40; i = i + 1) {
		if (rand(2) == 0) { s = s + helper(i); } else {
			if (rand(3) == 0) { s = s - helper(s); } else { s = s - 1; }
		}
	}
	print(s);
}
`

const mergeK = 1

func mergePipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	p, err := pipeline.Compile(mergeSrc, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// snapshotAt profiles one (seed, store-kind) run and wraps it.
func snapshotAt(t *testing.T, p *pipeline.Pipeline, seed uint64, kind profile.StoreKind) *Snapshot {
	t.Helper()
	cfg := instrument.Config{K: mergeK, Loops: true, Interproc: true}
	run, err := p.ExecuteStore(pipeline.EngineReg, cfg, seed, nil, profile.NewStore(kind, p.Info, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(mergeK, 2, run.Counters)
}

func encoded(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustMergeAll(t *testing.T, snaps ...*Snapshot) *Snapshot {
	t.Helper()
	out, err := MergeAll(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMergeCommutative(t *testing.T) {
	p := mergePipeline(t)
	a := snapshotAt(t, p, 1, profile.StoreNested)
	b := snapshotAt(t, p, 2, profile.StoreNested)
	ab := encoded(t, mustMergeAll(t, a, b))
	ba := encoded(t, mustMergeAll(t, b, a))
	if !bytes.Equal(ab, ba) {
		t.Fatal("a+b and b+a encode differently")
	}
}

func TestMergeAssociative(t *testing.T) {
	p := mergePipeline(t)
	a := snapshotAt(t, p, 1, profile.StoreNested)
	b := snapshotAt(t, p, 2, profile.StoreNested)
	c := snapshotAt(t, p, 3, profile.StoreNested)
	left := mustMergeAll(t, a, b) // (a+b)+c
	if err := left.Merge(c); err != nil {
		t.Fatal(err)
	}
	right := mustMergeAll(t, b, c) // a+(b+c)
	acc := a.Clone()
	if err := acc.Merge(right); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, left), encoded(t, acc)) {
		t.Fatal("(a+b)+c and a+(b+c) encode differently")
	}
}

func TestMergeIdentity(t *testing.T) {
	p := mergePipeline(t)
	a := snapshotAt(t, p, 1, profile.StoreArena)
	want := encoded(t, a)
	id := Empty(a.K, a.Iters, a.NumFuncs)
	if got := encoded(t, mustMergeAll(t, id, a)); !bytes.Equal(got, want) {
		t.Fatal("empty+a differs from a")
	}
	if got := encoded(t, mustMergeAll(t, a, id)); !bytes.Equal(got, want) {
		t.Fatal("a+empty differs from a")
	}
	if id.Mass() != 0 {
		t.Fatalf("identity snapshot has mass %d", id.Mass())
	}
}

// TestMergeMixedStores merges snapshots collected on alternating store
// layouts (nested, arena, nested — distinct seeds) and requires the fold to
// be independent of which layouts the shards happened to use and of which
// layout accumulates:
// merging into each store kind via IntoStore materializes the same canonical
// counters MergeAll produces.
func TestMergeMixedStores(t *testing.T) {
	p := mergePipeline(t)
	snaps := []*Snapshot{
		snapshotAt(t, p, 10, profile.StoreNested),
		snapshotAt(t, p, 11, profile.StoreArena),
		snapshotAt(t, p, 12, profile.StoreNested),
	}
	want := encoded(t, mustMergeAll(t, snaps...))
	for _, kind := range []profile.StoreKind{profile.StoreNested, profile.StoreArena} {
		dst := profile.NewStore(kind, p.Info, 2)
		for _, s := range snaps {
			if err := IntoStore(dst, s); err != nil {
				t.Fatalf("IntoStore(%s): %v", kind, err)
			}
		}
		got := encoded(t, New(mergeK, 2, dst.Counters()))
		if !bytes.Equal(got, want) {
			t.Fatalf("accumulating in %s store diverges from MergeAll", kind)
		}
	}
}

func TestMergeSaturates(t *testing.T) {
	near := uint64(math.MaxUint64) - 5
	mk := func(bl, loop uint64) *Snapshot {
		c := profile.NewCounters(1)
		c.BL[0][0] = bl
		c.Loop[profile.LoopKey{Func: 0, Loop: 0, Base: 0, Ext: 1, Full: true}] = loop
		return New(0, 2, c)
	}
	a, b, c := mk(near, 7), mk(10, near), mk(100, 100)

	ab := mustMergeAll(t, a, b)
	if got := ab.Counters.BL[0][0]; got != math.MaxUint64 {
		t.Fatalf("BL counter = %d, want saturation at max", got)
	}
	lk := profile.LoopKey{Func: 0, Loop: 0, Base: 0, Ext: 1, Full: true}
	if got := ab.Counters.Loop[lk]; got != math.MaxUint64 {
		t.Fatalf("loop counter = %d, want saturation at max", got)
	}

	// The algebra stays commutative and associative at the ceiling.
	if !bytes.Equal(encoded(t, mustMergeAll(t, a, b, c)), encoded(t, mustMergeAll(t, c, b, a))) {
		t.Fatal("saturating merge is not commutative")
	}
	left := mustMergeAll(t, a, b)
	if err := left.Merge(c); err != nil {
		t.Fatal(err)
	}
	acc := a.Clone()
	if err := acc.Merge(mustMergeAll(t, b, c)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, left), encoded(t, acc)) {
		t.Fatal("saturating merge is not associative")
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := Empty(1, 2, 3)
	if err := a.Merge(Empty(2, 2, 3)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("k mismatch: err = %v, want ErrIncompatible", err)
	}
	if err := a.Merge(Empty(1, 2, 4)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("numFuncs mismatch: err = %v, want ErrIncompatible", err)
	}
	if err := a.Merge(Empty(1, 3, 3)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("iters mismatch: err = %v, want ErrIncompatible", err)
	}
	// Width 0 normalizes to the classic 2, so pre-iters snapshots stay
	// mergeable with explicit-width-2 ones.
	if err := a.Merge(Empty(1, 0, 3)); err != nil {
		t.Fatalf("iters 0 vs 2: err = %v, want nil", err)
	}
	if _, err := MergeAll(); err == nil {
		t.Fatal("MergeAll() of nothing must error")
	}
	if _, err := MergeAll(Empty(1, 2, 3), Empty(0, 2, 3)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("MergeAll mismatch: err = %v, want ErrIncompatible", err)
	}
}

// TestSnapshotEncodeWidened pins the wire format across the key width axis:
// a snapshot holding multi-crossing loop keys must round-trip byte-stably
// with its width intact, and a width-2 snapshot's header must omit the
// iters field entirely — byte-identical to the pre-iters encoding.
func TestSnapshotEncodeWidened(t *testing.T) {
	c := profile.NewCounters(2)
	c.BL[0][3] = 9
	wk := profile.LoopKey{Func: 0, Loop: 0, Base: 4, Ext: 1, Full: true}
	wk.SetCrossing(1, 2, true)
	wk.SetCrossing(2, 0, false)
	c.Loop[wk] = 5
	c.Loop[profile.LoopKey{Func: 1, Loop: 0, Base: 4, Ext: 1, Full: true}] = 3
	s := New(2, 4, c)
	raw := encoded(t, s)
	rt, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Iters != 4 {
		t.Fatalf("round-trip width %d, want 4", rt.Iters)
	}
	if got := rt.Counters.Loop[wk]; got != 5 {
		t.Fatalf("widened key count %d after round trip, want 5", got)
	}
	if !bytes.Equal(encoded(t, rt), raw) {
		t.Fatal("widened decode+encode is not byte-stable")
	}

	classic := encoded(t, Empty(1, 2, 1))
	header := classic[:bytes.IndexByte(classic, '\n')]
	if bytes.Contains(header, []byte("iters")) {
		t.Fatalf("width-2 header %q mentions iters; must match the pre-iters format", header)
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	p := mergePipeline(t)
	s := snapshotAt(t, p, 5, profile.StoreArena)
	raw := encoded(t, s)
	rt, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if rt.K != s.K || rt.NumFuncs != s.NumFuncs {
		t.Fatalf("round-trip envelope (%d,%d) != (%d,%d)", rt.K, rt.NumFuncs, s.K, s.NumFuncs)
	}
	if !bytes.Equal(encoded(t, rt), raw) {
		t.Fatal("decode+encode is not byte-stable")
	}
	if _, err := Decode(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Fatal("garbage header must fail")
	}
	if _, err := Decode(bytes.NewReader([]byte(`{"format":"other","version":1}` + "\n"))); err == nil {
		t.Fatal("wrong format must fail")
	}
}

func TestIntoStoreRefusesNonBulk(t *testing.T) {
	var plain minimalStore
	if err := IntoStore(&plain, Empty(0, 2, 1)); err == nil {
		t.Fatal("non-BulkStore must be refused")
	}
}

// minimalStore implements only CounterStore, not BulkStore: the promoted
// AddLoop is shadowed by an incompatible signature, so the BulkStore type
// assertion must fail.
type minimalStore struct{ profile.NestedStore }

func (m *minimalStore) AddLoop(profile.LoopKey) {}

// TestMergeBoundsMonotone checks the estimation-facing guarantees of the
// tentpole: merging more shard mass never *shrinks* the Potential upper
// bound of any structure's flow, and the merged profile's Definite lower
// bound never falls below any single shard's (the concatenated run's flows
// contain every shard's flows).
func TestMergeBoundsMonotone(t *testing.T) {
	p := mergePipeline(t)
	s := core.FromPipeline(p)
	parts := []*Snapshot{
		snapshotAt(t, p, 21, profile.StoreNested),
		snapshotAt(t, p, 22, profile.StoreNested),
		snapshotAt(t, p, 23, profile.StoreNested),
	}
	merged := mustMergeAll(t, parts...)
	pe, err := s.EstimateMode(core.RunFromCounters(mergeK, 2, merged.Counters), estimate.Paper)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range parts {
		pp, err := s.EstimateMode(core.RunFromCounters(mergeK, 2, part.Counters), estimate.Paper)
		if err != nil {
			t.Fatal(err)
		}
		if pe.Potential() < pp.Potential() {
			t.Fatalf("part %d: merged Potential %d < part Potential %d", i, pe.Potential(), pp.Potential())
		}
		if pe.Definite() < pp.Definite() {
			t.Fatalf("part %d: merged Definite %d < part Definite %d", i, pe.Definite(), pp.Definite())
		}
	}
}
