package profile_test

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pathprof/internal/profile"
)

// randLoopKey draws a random loop key.
func randLoopKey(rng *rand.Rand) profile.LoopKey {
	return profile.LoopKey{
		Func: rng.Intn(3),
		Loop: rng.Intn(2),
		Base: int64(rng.Intn(5)),
		Ext:  int64(rng.Intn(4)),
		Full: rng.Intn(2) == 0,
	}
}

func randLoopRecord(rng *rand.Rand) profile.Record {
	k := randLoopKey(rng)
	return profile.Record{
		Kind: "loop", Func: k.Func, Loop: k.Loop, Base: k.Base,
		Ext: k.Ext, Full: k.Full, N: uint64(1 + rng.Intn(9)),
	}
}

// TestRecordLessStrictTotalOrder property-tests the canonical comparator
// over randomly generated loop keys: irreflexive, antisymmetric,
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

// TestSerializeRandomRoundTripByteStable proves a profile of random loop
// keys, mixed with every other counter family, survives a serialize -> read
// -> serialize cycle byte-for-byte.
func TestSerializeRandomRoundTripByteStable(t *testing.T) {
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
		t.Fatal("random profile did not round-trip byte-stably")
	}
	// The flattening must already be sorted by the canonical order — a
	// comparator/flattening mismatch would surface as unstable output.
	recs := c.Records()
	if !sort.SliceIsSorted(recs, func(i, j int) bool { return profile.RecordLess(recs[i], recs[j]) }) {
		t.Fatal("Records() output is not sorted by RecordLess")
	}
}

// TestReadCountersRefusesWidenedRecord: a loop record carrying a field of a
// multi-iteration window (ext2, full2, ...) is refused with the record
// named, not folded onto the two-iteration key its other fields spell, and
// so is a header naming a window width.
func TestReadCountersRefusesWidenedRecord(t *testing.T) {
	c := profile.NewCounters(1)
	c.Loop[profile.LoopKey{Base: 3, Ext: 1, Full: true}] = 4
	var buf bytes.Buffer
	if err := c.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.ReadCounters(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("two-iteration record refused: %v", err)
	}
	for _, field := range []string{`"ext2":2,`, `"full2":true,`} {
		bad := bytes.Replace(buf.Bytes(), []byte(`"ext":1,`), []byte(`"ext":1,`+field), 1)
		_, err := profile.ReadCounters(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("record with %s: err = %v, want the record refused", field, err)
		}
	}
	bad := bytes.Replace(buf.Bytes(), []byte(`"numFuncs":1`), []byte(`"numFuncs":1,"iters":3`), 1)
	if _, err := profile.ReadCounters(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("header naming iters 3: err = %v, want the header refused", err)
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
