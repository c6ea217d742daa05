package profile_test

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"pathprof/internal/profile"
)

// randLoopKey draws a random loop key of random window width (1..3
// crossings), always through SetCrossing so the offset-by-one invariant
// (Ext3 set implies Ext2 set) holds by construction.
func randLoopKey(rng *rand.Rand) profile.LoopKey {
	k := profile.LoopKey{
		Func: rng.Intn(3),
		Loop: rng.Intn(2),
		Base: int64(rng.Intn(5)),
	}
	width := 1 + rng.Intn(3)
	for i := 0; i < width; i++ {
		k.SetCrossing(i, int64(rng.Intn(4)), rng.Intn(2) == 0)
	}
	return k
}

func randLoopRecord(rng *rand.Rand) profile.Record {
	k := randLoopKey(rng)
	return profile.Record{
		Kind: "loop", Func: k.Func, Loop: k.Loop, Base: k.Base,
		Ext: k.Ext, Full: k.Full, Ext2: k.Ext2, Full2: k.Full2,
		Ext3: k.Ext3, Full3: k.Full3, N: uint64(1 + rng.Intn(9)),
	}
}

// TestRecordLessStrictTotalOrder property-tests the canonical comparator
// over randomly generated multi-iteration keys: irreflexive, antisymmetric,
// transitive, and total on distinct keys — the properties a sort-stable
// serialization needs. Records differing only in N compare equal both ways
// (N is a value, not part of the key).
func TestRecordLessStrictTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	sameKey := func(a, b profile.Record) bool {
		a.N, b.N = 0, 0
		return a == b
	}
	for trial := 0; trial < 5000; trial++ {
		a, b, c := randLoopRecord(rng), randLoopRecord(rng), randLoopRecord(rng)
		if profile.RecordLess(a, a) {
			t.Fatalf("irreflexivity violated: %+v < itself", a)
		}
		if profile.RecordLess(a, b) && profile.RecordLess(b, a) {
			t.Fatalf("antisymmetry violated: %+v <> %+v", a, b)
		}
		if !sameKey(a, b) && !profile.RecordLess(a, b) && !profile.RecordLess(b, a) {
			t.Fatalf("totality violated: %+v vs %+v compare equal", a, b)
		}
		if profile.RecordLess(a, b) && profile.RecordLess(b, c) && !profile.RecordLess(a, c) {
			t.Fatalf("transitivity violated: %+v < %+v < %+v but not a < c", a, b, c)
		}
	}
}

// TestSerializeMultiIterRoundTripByteStable proves the widened key format
// survives a serialize -> read -> serialize cycle byte-for-byte, with keys
// spanning every supported window width mixed into one profile.
func TestSerializeMultiIterRoundTripByteStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := profile.NewCounters(3)
	c.BL[0][4] = 10
	c.BL[2][0] = 3
	for i := 0; i < 200; i++ {
		c.Loop[randLoopKey(rng)] += uint64(1 + rng.Intn(5))
	}
	c.TypeI[profile.TypeIKey{Caller: 0, Site: 1, Callee: 2, Prefix: 3, Ext: 1}] = 2
	c.TypeII[profile.TypeIIKey{Caller: 2, Site: 0, Callee: 1, Path: 5, Ext: 0}] = 4
	c.Calls[profile.CallKey{Caller: 0, Site: 1, Callee: 2}] = 6

	var first bytes.Buffer
	if err := c.Serialize(&first); err != nil {
		t.Fatal(err)
	}
	got, err := profile.ReadCounters(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := got.Serialize(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("multi-iteration profile did not round-trip byte-stably")
	}
	// The flattening must already be sorted by the canonical order — a
	// comparator/flattening mismatch would surface as unstable output.
	recs := c.Records()
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return profile.RecordLess(recs[i], recs[j]) }) {
		t.Fatal("Records() output is not sorted by RecordLess")
	}
}

// TestLoopKeyCrossingAccessors pins the offset-by-one encoding: zero-valued
// tails mean absent crossings, and Crossing/SetCrossing invert each other.
func TestLoopKeyCrossingAccessors(t *testing.T) {
	var k profile.LoopKey
	if n := k.NumCrossings(); n != 1 {
		t.Fatalf("zero key has %d crossings, want 1 (the classic shape)", n)
	}
	k.SetCrossing(0, 0, false)
	k.SetCrossing(1, 0, true)
	k.SetCrossing(2, 7, false)
	if k.Ext2 != 1 || k.Ext3 != 8 {
		t.Fatalf("offset encoding broken: Ext2=%d Ext3=%d, want 1 and 8", k.Ext2, k.Ext3)
	}
	if n := k.NumCrossings(); n != 3 {
		t.Fatalf("NumCrossings = %d, want 3", n)
	}
	for i, want := range []struct {
		route int64
		full  bool
	}{{0, false}, {0, true}, {7, false}} {
		route, full := k.Crossing(i)
		if route != want.route || full != want.full {
			t.Fatalf("Crossing(%d) = (%d, %v), want (%d, %v)", i, route, full, want.route, want.full)
		}
	}
	if p := k.FirstCrossing(); p != (profile.LoopKey{Func: k.Func, Loop: k.Loop, Base: k.Base}) {
		t.Fatalf("FirstCrossing = %+v, want the bare two-iteration projection", p)
	}
}

// TestNumRecordsCountsRecords checks the counted record total (the snapshot
// envelope's count) equals the flattened record list on every family.
func TestNumRecordsCountsRecords(t *testing.T) {
	c := profile.NewCounters(3)
	if n := c.NumRecords(); n != 0 {
		t.Fatalf("empty counters: NumRecords = %d", n)
	}
	c.BL[0][1] = 2
	c.BL[0][5] = 1
	c.BL[2][0] = 7
	c.Loop[profile.LoopKey{Func: 1, Base: 3, Ext: 1, Full: true}] = 4
	c.TypeI[profile.TypeIKey{Caller: 0, Site: 1, Callee: 2, Prefix: 3, Ext: 4}] = 1
	c.TypeII[profile.TypeIIKey{Caller: 2, Site: 0, Callee: 1, Path: 6, Ext: 2}] = 1
	c.Calls[profile.CallKey{Caller: 0, Site: 1, Callee: 2}] = 9
	if got, want := c.NumRecords(), len(c.Records()); got != want || want != 7 {
		t.Fatalf("NumRecords = %d, len(Records()) = %d, want 7", got, want)
	}
}
