package profstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathprof/internal/merge"
	"pathprof/internal/profile"
)

// testSnap builds a deterministic synthetic snapshot: every counter family
// populated, content derived from seed so different seeds carry different
// mass. Synthetic counters keep the battery fast — the byte-stability of
// real pipeline-produced snapshots is the merge package's own test surface.
func testSnap(k int, seed uint64) *merge.Snapshot {
	c := profile.NewCounters(3)
	c.BL[0][int64(seed%5)] = seed + 1
	c.BL[1][int64(seed%3)] = 2*seed + 1
	c.BL[2][7] = seed * seed
	c.Loop[profile.LoopKey{Func: 0, Loop: 0, Base: int64(seed % 4), Ext: 1, Full: true}] = seed + 2
	c.TypeI[profile.TypeIKey{Caller: 0, Site: 1, Callee: 2, Prefix: int64(seed % 2), Ext: 3}] = seed + 3
	c.TypeII[profile.TypeIIKey{Caller: 1, Site: 0, Callee: 2, Path: 5, Ext: int64(seed % 3)}] = seed + 4
	c.Calls[profile.CallKey{Caller: 0, Site: 1, Callee: 2}] = seed + 5
	return merge.New(k, 2, c)
}

// snapBytes is the byte-stable encoding equality check both restarts and
// compactions must preserve.
func snapBytes(t *testing.T, s *merge.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustOpen(t *testing.T, dir string, cfg Config) *Store {
	t.Helper()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAppend(t *testing.T, s *Store, bench string, snap *merge.Snapshot) {
	t.Helper()
	if err := s.Append(bench, snap); err != nil {
		t.Fatal(err)
	}
}

// requireCell fetches a cell that must exist.
func requireCell(t *testing.T, s *Store, key CellKey) *merge.Snapshot {
	t.Helper()
	snap, ok := s.Cell(key)
	if !ok {
		t.Fatalf("cell %v missing", key)
	}
	return snap
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	var want []*merge.Snapshot
	for seed := uint64(1); seed <= 5; seed++ {
		snap := testSnap(1, seed)
		want = append(want, snap)
		mustAppend(t, s, "bench.a", snap)
	}
	mustAppend(t, s, "bench.b", testSnap(2, 9))
	control, err := merge.MergeAll(want...)
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s, key)); !bytes.Equal(got, snapBytes(t, control)) {
		t.Fatal("live fold differs from MergeAll control")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened store must serve byte-identical cells.
	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, control)) {
		t.Fatal("replayed fold differs from MergeAll control")
	}
	if _, ok := s2.Cell(CellKey{Bench: "bench.b", K: 2}); !ok {
		t.Fatal("second cell lost across reopen")
	}
	if len(s2.Corruptions()) != 0 {
		t.Fatalf("clean reopen blamed records: %v", s2.Corruptions())
	}
}

func TestInstallAndDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	mustAppend(t, s, "bench.a", testSnap(1, 1))
	installed := testSnap(1, 42)
	if err := s.Install("bench.a", installed); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "bench.b", testSnap(0, 7))
	if err := s.Delete("bench.b", 0); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	key := CellKey{Bench: "bench.a", K: 1}
	// Install is replacement: the earlier append must not survive in the fold.
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, installed)) {
		t.Fatal("install did not replay as replacement")
	}
	if _, ok := s2.Cell(CellKey{Bench: "bench.b", K: 0}); ok {
		t.Fatal("deleted cell resurrected by replay")
	}
}

// TestTornTailTruncation cuts the log at every byte inside the final
// record's frame and proves recovery truncates exactly that record, keeps
// everything acked before it, and accepts new appends afterwards.
func TestTornTailTruncation(t *testing.T) {
	build := func(t *testing.T) (string, string, int64, []byte) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Config{})
		mustAppend(t, s, "bench.a", testSnap(1, 1))
		mustAppend(t, s, "bench.a", testSnap(1, 2))
		seg := filepath.Join(dir, segName(1))
		st, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		preLen := st.Size()
		mustAppend(t, s, "bench.a", testSnap(1, 3))
		s.Close()
		ctl, err := merge.MergeAll(testSnap(1, 1), testSnap(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		return dir, seg, preLen, snapBytes(t, ctl)
	}

	dir, seg, preLen, want := build(t)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	// Cut points span the torn frame: mid-length-prefix, mid-CRC, mid-payload.
	for _, cut := range []int64{preLen, preLen + 3, preLen + 7, preLen + 9,
		(preLen + int64(len(full))) / 2, int64(len(full)) - 1} {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, Config{})
		if got := snapBytes(t, requireCell(t, s, key)); !bytes.Equal(got, want) {
			t.Fatalf("cut at %d: recovered fold differs from the two acked records", cut)
		}
		if len(s.Corruptions()) != 0 {
			t.Fatalf("cut at %d: torn tail blamed instead of truncated: %v", cut, s.Corruptions())
		}
		// The truncated store must keep working.
		mustAppend(t, s, "bench.a", testSnap(1, 4))
		s.Close()
		// Restore the full segment for the next cut point.
		if err := os.WriteFile(seg, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlippedCRCBlame flips one payload byte in the middle record and
// requires a blame naming the exact segment and record index, with the
// other records' mass intact.
func TestFlippedCRCBlame(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	seg := filepath.Join(dir, segName(1))
	var offsets []int64
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := os.Stat(seg)
		if err == nil {
			offsets = append(offsets, st.Size())
		} else {
			offsets = append(offsets, 0)
		}
		mustAppend(t, s, "bench.a", testSnap(1, seed))
	}
	s.Close()

	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in record 1's payload (past its 8-byte frame header).
	data[offsets[1]+int64(frameLen)+5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	corr := s2.Corruptions()
	if len(corr) != 1 {
		t.Fatalf("want exactly one blamed record, got %v", corr)
	}
	if corr[0].File != segName(1) || corr[0].Record != 1 {
		t.Fatalf("blame names %s record %d, want %s record 1", corr[0].File, corr[0].Record, segName(1))
	}
	if !strings.Contains(corr[0].String(), "checksum") {
		t.Fatalf("blame string %q does not name the checksum failure", corr[0].String())
	}
	// Records 0 and 2 survive; the corrupt one contributes nothing.
	ctl, err := merge.MergeAll(testSnap(1, 1), testSnap(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
		t.Fatal("fold after skip-with-blame differs from the two good records")
	}
	if s2.MetricsSnapshot().CorruptRecords != 1 {
		t.Fatalf("metrics count %d corrupt records, want 1", s2.MetricsSnapshot().CorruptRecords)
	}
}

// TestTruncatedSnapshotBlame corrupts a record so the snapshot payload
// itself is cut short (with a recomputed CRC, so framing survives) and
// requires the blame to carry merge's truncation diagnostics.
func TestTruncatedSnapshotBlame(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	mustAppend(t, s, "bench.a", testSnap(1, 1))
	s.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := bytes.IndexByte(data, '\n') + 1
	payload, _, err := parseFrame(data, hdrEnd)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the record with the payload's final counter line cut off:
	// framing stays valid, so the decode failure is the snapshot's own
	// records-envelope check.
	cutPayload := payload[:bytes.LastIndexByte(payload[:len(payload)-1], '\n')+1]
	rebuilt := append(append([]byte{}, data[:hdrEnd]...), frameRecord(cutPayload)...)
	if err := os.WriteFile(seg, rebuilt, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	corr := s2.Corruptions()
	if len(corr) != 1 {
		t.Fatalf("want one blamed record, got %v", corr)
	}
	msg := corr[0].String()
	if !strings.Contains(msg, segName(1)) || !strings.Contains(msg, "record 0") {
		t.Fatalf("blame %q does not name segment and record", msg)
	}
	if !strings.Contains(msg, "truncated") {
		t.Fatalf("blame %q does not surface the snapshot truncation diagnostic", msg)
	}
}

// TestMidLogCorruptionDoesNotRepair damages a sealed (non-final) segment
// and requires blame without any file modification: repair is reserved for
// the crash-torn tail.
func TestMidLogCorruptionDoesNotRepair(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: 1}) // every append rolls
	mustAppend(t, s, "bench.a", testSnap(1, 1))
	mustAppend(t, s, "bench.a", testSnap(1, 2))
	mustAppend(t, s, "bench.a", testSnap(1, 3))
	s.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-4]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Config{SegmentBytes: 1})
	defer s2.Close()
	if len(s2.Corruptions()) == 0 {
		t.Fatal("mid-log torn record not blamed")
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(torn) {
		t.Fatal("recovery modified a sealed segment")
	}
	// Records 2 and 3 still fold.
	ctl, err := merge.MergeAll(testSnap(1, 2), testSnap(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
		t.Fatal("surviving records lost alongside the blamed one")
	}
}

// TestRefusedSegmentHeaderFailsOpen: a complete header the store refuses —
// here one naming another format version — heads records that were acked,
// so a writable Open fails naming the segment and leaves the file
// byte-for-byte intact, instead of resetting it as if the header were torn.
func TestRefusedSegmentHeaderFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	for seed := uint64(1); seed <= 3; seed++ {
		mustAppend(t, s, "bench.a", testSnap(1, seed))
	}
	s.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bumped := bytes.Replace(data, []byte(`"version":1`), []byte(`"version":2`), 1)
	if bytes.Equal(bumped, data) {
		t.Fatal("segment header carries no version field")
	}
	if err := os.WriteFile(seg, bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(dir, Config{}); err == nil {
		s2.Close()
		t.Fatal("Open accepted a segment whose header names another version")
	} else if !strings.Contains(err.Error(), segName(1)) || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Open error %q does not name the segment and its version", err)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, bumped) {
		t.Fatalf("refused segment changed on disk: %d bytes, was %d", len(after), len(bumped))
	}
}

// TestTornSegmentHeaderReset: a final segment holding only part of its
// header line — a crash before the fresh segment's header landed — is reset
// to empty, blamed on nothing, and written again by the next append; the
// segments before it replay untouched.
func TestTornSegmentHeaderReset(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	mustAppend(t, s, "bench.a", testSnap(1, 1))
	s.Close()
	seg := filepath.Join(dir, segName(2))
	if err := os.WriteFile(seg, []byte(`{"format":"pathprof-log","ver`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Config{})
	if info, err := os.Stat(seg); err != nil || info.Size() != 0 {
		t.Fatalf("torn header segment not reset: %v, %v", info, err)
	}
	if len(s2.Corruptions()) != 0 {
		t.Fatalf("torn header blamed: %v", s2.Corruptions())
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, testSnap(1, 1))) {
		t.Fatal("records before the torn segment lost")
	}
	mustAppend(t, s2, "bench.a", testSnap(1, 2))
	s2.Close()

	s3 := mustOpen(t, dir, Config{})
	defer s3.Close()
	want, err := merge.MergeAll(testSnap(1, 1), testSnap(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := snapBytes(t, requireCell(t, s3, key)); !bytes.Equal(got, snapBytes(t, want)) {
		t.Fatal("append after the reset did not replay")
	}
	if len(s3.Corruptions()) != 0 {
		t.Fatalf("reopen after the reset blamed records: %v", s3.Corruptions())
	}
}

func TestCompactionFoldsAndDeletesSegments(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 100}) // roll every append, no auto-compact
	var want []*merge.Snapshot
	for seed := uint64(1); seed <= 6; seed++ {
		snap := testSnap(1, seed)
		want = append(want, snap)
		mustAppend(t, s, "bench.a", snap)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	m := s.MetricsSnapshot()
	if m.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", m.Compactions)
	}
	if m.Segments != 1 {
		t.Fatalf("segments after compaction = %d, want only the active one", m.Segments)
	}
	ctl, err := merge.MergeAll(want...)
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
		t.Fatal("compaction changed the live fold")
	}
	s.Close()

	// Reopen: base + remaining tail must replay to the identical bytes.
	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
		t.Fatal("replay after compaction differs from control")
	}
}

// TestCompactionCrashWindows dies inside both compaction crash windows and
// proves replay still reconstructs the exact fold — the per-cell upToSeq
// covered-skip rule at work.
func TestCompactionCrashWindows(t *testing.T) {
	for _, step := range []string{"bases-tmp", "bases-renamed"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 100})
			var want []*merge.Snapshot
			for seed := uint64(1); seed <= 5; seed++ {
				snap := testSnap(1, seed)
				want = append(want, snap)
				mustAppend(t, s, "bench.a", snap)
			}
			mustAppend(t, s, "bench.b", testSnap(0, 11))
			if err := s.Delete("bench.b", 0); err != nil {
				t.Fatal(err)
			}
			ctl, err := merge.MergeAll(want...)
			if err != nil {
				t.Fatal(err)
			}

			compactCrash = func(at string) {
				if at == step {
					panic("profstore test crash at " + at)
				}
			}
			defer func() { compactCrash = nil }()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("compaction did not reach crash step %s", step)
					}
				}()
				s.Compact() //nolint:errcheck // the panic is the point
			}()
			compactCrash = nil
			// The crashed process's file handles die with it; simulate by
			// abandoning s without Close (Close would be orderly shutdown).

			s2 := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 100})
			key := CellKey{Bench: "bench.a", K: 1}
			if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
				t.Fatalf("crash at %s: replay fold differs from control", step)
			}
			if _, ok := s2.Cell(CellKey{Bench: "bench.b", K: 0}); ok {
				t.Fatalf("crash at %s: deleted cell resurrected", step)
			}
			// A second, uninterrupted compaction must converge cleanly.
			if err := s2.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
				t.Fatalf("crash at %s: post-recovery compaction changed the fold", step)
			}
			s2.Close()

			// And one more replay from the converged state.
			s3 := mustOpen(t, dir, Config{})
			defer s3.Close()
			if got := snapBytes(t, requireCell(t, s3, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
				t.Fatalf("crash at %s: final replay differs from control", step)
			}
		})
	}
}

func TestDecayHalvesBaseMass(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 100, DecayShift: 1})
	old := testSnap(1, 100)
	mustAppend(t, s, "bench.a", old)
	// First compaction: the record is new mass, folded at full weight.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if gotB := snapBytes(t, requireCell(t, s, key)); !bytes.Equal(gotB, snapBytes(t, old)) {
		t.Fatal("first compaction decayed brand-new mass")
	}

	// Second compaction: the old mass is now base history and halves; the
	// fresh record keeps full weight on top.
	fresh := testSnap(1, 200)
	mustAppend(t, s, "bench.a", fresh)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	halved := old.Clone()
	decayCounters(halved.Counters, 1)
	ctl, err := merge.MergeAll(halved, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if gotB := snapBytes(t, requireCell(t, s, key)); !bytes.Equal(gotB, snapBytes(t, ctl)) {
		t.Fatal("second compaction did not decay the base exactly once")
	}
	s.Close()

	// Disk agrees with the served fold after a decaying compaction.
	s2 := mustOpen(t, dir, Config{})
	defer s2.Close()
	if gotB := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(gotB, snapBytes(t, ctl)) {
		t.Fatal("replayed decayed fold differs from served fold")
	}
}

// TestRetentionTriggersBackgroundCompaction fills segments past MaxSegments
// and requires the store to compact itself.
func TestRetentionTriggersBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 2})
	for seed := uint64(1); seed <= 10; seed++ {
		mustAppend(t, s, "bench.a", testSnap(1, seed))
	}
	s.Close() // waits for the background round
	m := s.MetricsSnapshot()
	if m.Compactions == 0 {
		t.Fatal("background compaction never ran")
	}
	s2 := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 2})
	defer s2.Close()
	var want []*merge.Snapshot
	for seed := uint64(1); seed <= 10; seed++ {
		want = append(want, testSnap(1, seed))
	}
	ctl, err := merge.MergeAll(want...)
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s2, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
		t.Fatal("background compaction lost mass")
	}
}

func TestReadOnlyStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{})
	mustAppend(t, s, "bench.a", testSnap(1, 1))
	s.Close()

	ro := mustOpen(t, dir, Config{ReadOnly: true})
	defer ro.Close()
	if err := ro.Append("bench.a", testSnap(1, 2)); err != ErrReadOnly {
		t.Fatalf("read-only append error = %v, want ErrReadOnly", err)
	}
	if err := ro.Compact(); err != ErrReadOnly {
		t.Fatalf("read-only compact error = %v, want ErrReadOnly", err)
	}
	if _, ok := ro.Cell(CellKey{Bench: "bench.a", K: 1}); !ok {
		t.Fatal("read-only open lost the cell")
	}

	// A torn tail must not be repaired in read-only mode.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	ro2 := mustOpen(t, dir, Config{ReadOnly: true})
	defer ro2.Close()
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data)-3 {
		t.Fatal("read-only open modified the log")
	}
}

// TestBasesOnlyStoreAdvancesSeq prunes every segment after compaction and
// requires fresh appends to land above the covered seq (not be skipped as
// already-folded).
func TestBasesOnlyStoreAdvancesSeq(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Config{SegmentBytes: 1, MaxSegments: 100})
	mustAppend(t, s, "bench.a", testSnap(1, 1))
	mustAppend(t, s, "bench.a", testSnap(1, 2))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Hand-prune the remaining tail segment, leaving a bases-only store.
	segs, err := filepath.Glob(filepath.Join(dir, SegPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range segs {
		os.Remove(f)
	}

	s2 := mustOpen(t, dir, Config{})
	fresh := testSnap(1, 3)
	mustAppend(t, s2, "bench.a", fresh)
	s2.Close()

	s3 := mustOpen(t, dir, Config{})
	defer s3.Close()
	// Both early records were compacted into the base before the tail was
	// pruned, so all three survive — the fresh one proves the post-prune
	// segment opened above the base's covered seq.
	ctl, err := merge.MergeAll(testSnap(1, 1), testSnap(1, 2), fresh)
	if err != nil {
		t.Fatal(err)
	}
	key := CellKey{Bench: "bench.a", K: 1}
	if got := snapBytes(t, requireCell(t, s3, key)); !bytes.Equal(got, snapBytes(t, ctl)) {
		t.Fatal("append into a bases-only store was skipped as covered")
	}
}

func TestFormatTokensStable(t *testing.T) {
	toks := FormatTokens()
	seen := map[string]bool{}
	for _, tok := range toks {
		if tok == "" {
			t.Fatal("empty format token")
		}
		if seen[tok] {
			t.Fatalf("duplicate format token %q", tok)
		}
		seen[tok] = true
	}
	for _, want := range []string{LogFormatName, BaseFormatName, "v1", OpAppend, OpInstall, OpDelete, SegPrefix, StageReplay, StageCompact} {
		if !seen[want] {
			t.Fatalf("FormatTokens missing %q", want)
		}
	}
	if want := fmt.Sprintf("v%d", FormatVersion); !seen[want] {
		t.Fatalf("FormatTokens missing version tag %q", want)
	}
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 7, 12345678} {
		got, ok := segSeq(segName(seq))
		if !ok || got != seq {
			t.Fatalf("segSeq(segName(%d)) = %d, %v", seq, got, ok)
		}
	}
	for _, bad := range []string{"seg-.log", "seg-12x4.log", "base", "seg-1.txt", "x-00000001.log"} {
		if _, ok := segSeq(bad); ok {
			t.Fatalf("segSeq accepted %q", bad)
		}
	}
}

// widenedSnapBytes is snap's wire encoding with its header naming a window
// width other than the paper's two iterations — what a store written while
// the multi-iteration axis existed holds for a widened cell.
func widenedSnapBytes(t *testing.T, snap *merge.Snapshot) []byte {
	t.Helper()
	raw := snapBytes(t, snap)
	at := fmt.Sprintf(`"k":%d,`, snap.K)
	if !bytes.Contains(raw, []byte(at)) {
		t.Fatalf("snapshot header lacks %s", at)
	}
	return bytes.Replace(raw, []byte(at), []byte(at+`"iters":3,`), 1)
}

// TestReplayQuarantinesWidenedRecords: a store holding a widened append, a
// widened delete and a widened (@i3) base replays each into the blamed
// quarantine — counted in store_corrupt_records, never folded into a cell —
// and its two-iteration cells replay byte-identical to a control store that
// never held them.
func TestReplayQuarantinesWidenedRecords(t *testing.T) {
	fill := func(dir string) {
		s := mustOpen(t, dir, Config{})
		for seed := uint64(1); seed <= 3; seed++ {
			mustAppend(t, s, "bench.a", testSnap(1, seed))
		}
		mustAppend(t, s, "bench.b", testSnap(0, 5))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	control, dir := t.TempDir(), t.TempDir()
	fill(control)
	fill(dir)

	// Widened log records, appended whole (length and CRC valid) to the
	// final segment.
	var frames []byte
	meta := []byte(`{"op":"append","benchmark":"bench.a"}` + "\n")
	frames = append(frames, frameRecord(append(meta, widenedSnapBytes(t, testSnap(1, 9))...))...)
	frames = append(frames, frameRecord([]byte(`{"op":"delete","benchmark":"bench.b","iters":3}`+"\n"))...)
	seg, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	// A widened base for a cell of its own.
	if err := os.MkdirAll(filepath.Join(dir, BaseDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf(`{"format":%q,"version":%d,"benchmark":"bench.c","k":1,"iters":3,"upToSeq":0}`+"\n",
		BaseFormatName, FormatVersion)
	body := append([]byte(base), frameRecord(widenedSnapBytes(t, testSnap(1, 4)))...)
	if err := os.WriteFile(filepath.Join(dir, BaseDirName, "bench.c@k1@i3"+BaseSuffix), body, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, dir, Config{})
	defer s.Close()
	blames := s.Corruptions()
	if len(blames) != 3 || s.MetricsSnapshot().CorruptRecords != 3 {
		t.Fatalf("blamed %d records (metric %d), want the widened append, delete and base: %v",
			len(blames), s.MetricsSnapshot().CorruptRecords, blames)
	}
	for _, c := range blames {
		if !strings.Contains(c.Err, "iters must be 2") {
			t.Errorf("blame %q does not name the refused width", c)
		}
	}
	ctl := mustOpen(t, control, Config{})
	defer ctl.Close()
	got, want := s.Cells(), ctl.Cells()
	if len(got) != len(want) {
		t.Fatalf("replayed cells %v, control cells %v", sortedCellKeys(got), sortedCellKeys(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok || !bytes.Equal(snapBytes(t, g), snapBytes(t, w)) {
			t.Fatalf("cell %s replays differently from the control", key)
		}
	}
}
