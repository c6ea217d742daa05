// Package profstore is the persistent tier under the pathprofd fleet fold:
// an append-only snapshot log with background compaction into per-cell base
// profiles, crash-safe recovery replay on open, and a retention/decay policy
// that keeps a long-running fleet's history bounded.
//
// The store leans on two properties the aggregation stack already
// guarantees. First, merge.Snapshot values fold with saturating, associative,
// commutative addition, so a fleet profile is exactly the fold of every
// record ever appended to it — replay order, compaction boundaries, and
// restart points cannot change the bytes a cell serves. Second, snapshots
// encode byte-stably (canonical profile.Records order plus the records-count
// integrity envelope), so the log can reuse the wire bytes verbatim and a
// replayed fleet is byte-identical to one that never restarted.
//
// On-disk layout (the full format specification, including the framing,
// checksums, the compaction state machine, and the recovery rules, lives in
// docs/FORMAT.md and is cross-checked against this package's constants by
// internal/tools/docscheck):
//
//	<dir>/
//	  seg-00000001.log   append-only record segments, ascending seq
//	  base/<cell>.base   compacted per-cell base profiles
//	  base/<cell>.tmp    in-flight compaction output (removed on open)
//
// Every log record is length-prefixed and CRC-framed; every base file
// carries the same frame around its snapshot payload. Recovery replays
// bases, then segments in seq order: a torn tail on the final segment is
// truncated (the record was never acked), while a checksum or decode failure
// anywhere else is skipped with blame — the corrupt record is quarantined in
// Corruptions() with its segment and record index and never poisons the
// fold.
package profstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pathprof/internal/limits"
	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/profile"
)

// Stable format constants. docs/FORMAT.md documents each one and
// internal/tools/docscheck fails the build when the document and this list
// drift apart (FormatTokens is the cross-checked set), so bumping
// FormatVersion or renaming a file-layout token without rewriting the format
// document is a build error.
const (
	// LogFormatName identifies a segment file's header line.
	LogFormatName = "pathprof-log"
	// BaseFormatName identifies a base-profile file's header line.
	BaseFormatName = "pathprof-base"
	// FormatVersion versions both on-disk formats together. Readers refuse
	// other versions; docs/FORMAT.md must describe exactly this version.
	FormatVersion = 1
	// SegPrefix and SegSuffix frame segment file names: seg-<8-digit seq>.log.
	SegPrefix = "seg-"
	// SegSuffix is the segment file extension.
	SegSuffix = ".log"
	// BaseDirName is the subdirectory holding compacted base profiles.
	BaseDirName = "base"
	// BaseSuffix is the base-profile file extension.
	BaseSuffix = ".base"
	// TmpSuffix marks in-flight compaction output; leftovers are removed on
	// open, so a crash mid-compaction can never publish a partial base.
	TmpSuffix = ".tmp"
)

// Record operations: every log record carries one, and replay applies them
// in sequence. The names are part of the on-disk format (docs/FORMAT.md).
const (
	// OpAppend folds the record's snapshot into its cell — the ingest path.
	OpAppend = "append"
	// OpInstall replaces the cell with the record's snapshot — the
	// coordinator install/handoff path, where replacement (not merge) keeps
	// re-pushes self-healing.
	OpInstall = "install"
	// OpDelete drops the cell — the handoff retirement path.
	OpDelete = "delete"
)

// Ops lists every record operation the log format defines, in the order
// docs/FORMAT.md documents them.
var Ops = []string{OpAppend, OpInstall, OpDelete}

// Span stage names for the store's two long-running phases, in the
// DESIGN.md §12 taxonomy (replay runs inside Open, compact inside Compact;
// both log their spans through internal/obs).
const (
	// StageReplay covers recovery replay: loading bases and re-applying
	// every surviving log record on open.
	StageReplay = "replay"
	// StageCompact covers one compaction round: folding sealed segments
	// into base profiles and deleting the covered segments.
	StageCompact = "compact"
)

// SpanStages lists the store's span stage names, in execution order.
var SpanStages = []string{StageReplay, StageCompact}

// FormatTokens returns every stable token of the on-disk format — format
// names, the version tag, record operations, file-layout affixes, and the
// span stages — the set docs/FORMAT.md must document verbatim (and must not
// extend), enforced both directions by internal/tools/docscheck.
func FormatTokens() []string {
	toks := []string{
		LogFormatName,
		BaseFormatName,
		fmt.Sprintf("v%d", FormatVersion),
	}
	toks = append(toks, Ops...)
	toks = append(toks, SegPrefix, SegSuffix, BaseDirName+"/", BaseSuffix, TmpSuffix)
	toks = append(toks, SpanStages...)
	return toks
}

// CellKey identifies one fleet profile cell, the store's unit of
// aggregation: snapshots only fold within a (benchmark, degree) cell. The
// daemon's and the coordinator's fleet maps key by it too.
type CellKey struct {
	// Bench is the benchmark name the profiles were collected for.
	Bench string
	// K is the profiled degree of overlap (-1 = Ball-Larus only).
	K int
}

// String renders the cell as "bench|k=K|iters=2", the cluster ring's
// placement key. The fixed iters=2 keeps the bytes every cell was placed
// by, so no cell moves to another worker.
func (c CellKey) String() string { return fmt.Sprintf("%s|k=%d|iters=2", c.Bench, c.K) }

// Corruption is one blamed record: a checksum mismatch, a decode failure, or
// an unreadable base file found during replay or compaction. Corrupt records
// are skipped, never folded, and surfaced here so an operator can trace the
// damage to an exact byte range instead of distrusting the whole store.
type Corruption struct {
	// File is the offending file's name within the store directory.
	File string `json:"file"`
	// Record is the 0-based record index within the segment (-1 for
	// file-level damage such as an unreadable header).
	Record int `json:"record"`
	// Err is the blame string, ending in the decoder's own error.
	Err string `json:"error"`
}

// String renders the blame line.
func (c Corruption) String() string {
	if c.Record < 0 {
		return fmt.Sprintf("%s: %s", c.File, c.Err)
	}
	return fmt.Sprintf("%s record %d: %s", c.File, c.Record, c.Err)
}

// Config tunes a Store. The zero value is a durable default: fsync on every
// append, 1 MiB segments, compaction once four sealed segments accumulate,
// no decay.
type Config struct {
	// SegmentBytes rolls the active segment once it reaches this size
	// (default 1 MiB).
	SegmentBytes int64
	// MaxSegments is the sealed-segment count that triggers a background
	// compaction (default 4).
	MaxSegments int
	// DecayShift, when non-zero, halves every base-profile counter
	// DecayShift times at each compaction (count >> DecayShift, zeroes
	// dropped) — exponential decay that keeps a perpetual fleet's history
	// bounded while recent mass dominates. Zero keeps counts forever and
	// preserves restart byte-identity with a never-compacted fold.
	DecayShift uint
	// NoSync skips the per-append fsync. Throughput tests may set it; a
	// production daemon should not, since an acked append must survive
	// kill -9.
	NoSync bool
	// ReadOnly opens the store for inspection only: recovery replays in
	// memory, but nothing is truncated, removed, or created on disk, and
	// Append/Install/Delete/Compact are refused. `pathprof -merge` reads
	// live store directories this way.
	ReadOnly bool
	// Logger receives replay/compaction events (nil = obs.Logger()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.MaxSegments <= 0 {
		c.MaxSegments = 4
	}
	if c.Logger == nil {
		c.Logger = obs.Logger()
	}
	return c
}

// Metrics is a point-in-time summary of the store, served by pathprofd's
// /metrics (fields store_segments, store_log_bytes, store_records,
// store_compactions, store_corrupt_records in docs/OPERATIONS.md).
type Metrics struct {
	// Segments counts on-disk log segments, the active one included.
	Segments int `json:"store_segments"`
	// LogBytes totals the on-disk segment sizes.
	LogBytes int64 `json:"store_log_bytes"`
	// Records counts records appended since open (replayed records are not
	// re-counted).
	Records int64 `json:"store_records"`
	// Compactions counts completed compaction rounds since open.
	Compactions int64 `json:"store_compactions"`
	// CorruptRecords counts records skipped with blame (see Corruptions).
	CorruptRecords int64 `json:"store_corrupt_records"`
	// Cells counts live fleet cells.
	Cells int `json:"store_cells"`
}

// ErrReadOnly reports a mutation attempted on a read-only store.
var ErrReadOnly = errors.New("profstore: store is read-only")

// Store is the persistent profile store. Open replays the directory; Append,
// Install, and Delete journal mutations durably before updating the
// in-memory fold; Cell and Cells read the live fold. A Store is safe for
// concurrent use.
type Store struct {
	dir string
	cfg Config
	log *slog.Logger

	mu        sync.Mutex
	cells     map[CellKey]*merge.Snapshot
	baseUpTo  map[CellKey]uint64 // highest segment seq folded into the cell's base
	active    *os.File
	activeSeq uint64
	activeLen int64
	sealed    []uint64 // sealed segment seqs still on disk, ascending
	failed    error    // a failed append poisons the store (the tail is torn)
	closed    bool

	compactMu   sync.Mutex // serializes compaction rounds
	compactWG   sync.WaitGroup
	corruptions []Corruption
	records     int64
	compactions int64
}

// Open replays the store directory (creating it if needed) and makes it
// ready for appends. Recovery is the crash-safety contract: leftover
// compaction temporaries are discarded, a torn record at the log tail is
// truncated away, and corrupt records are skipped with blame — every byte
// that was acked before a crash is served again, and nothing else.
func Open(dir string, cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		dir:      dir,
		cfg:      cfg,
		log:      cfg.Logger,
		cells:    map[CellKey]*merge.Snapshot{},
		baseUpTo: map[CellKey]uint64{},
	}
	if !cfg.ReadOnly {
		if err := os.MkdirAll(filepath.Join(dir, BaseDirName), 0o755); err != nil {
			return nil, fmt.Errorf("profstore: %w", err)
		}
		if err := s.clearTemporaries(); err != nil {
			return nil, err
		}
	}
	span := obs.NewSpan(StageReplay)
	replayed, err := s.replay()
	span.End()
	if err != nil {
		return nil, err
	}
	s.log.Info("profstore.replay",
		"dir", dir, "cells", len(s.cells), "segments", len(s.sealed)+1,
		"records", replayed, "corrupt", len(s.corruptions),
		"elapsed_ms", span.Duration().Milliseconds())
	return s, nil
}

// clearTemporaries removes in-flight compaction output left by a crash: a
// .tmp base was never published, so discarding it is always safe.
func (s *Store) clearTemporaries() error {
	tmps, err := filepath.Glob(filepath.Join(s.dir, BaseDirName, "*"+TmpSuffix))
	if err != nil {
		return fmt.Errorf("profstore: %w", err)
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return fmt.Errorf("profstore: removing leftover temporary: %w", err)
		}
		s.log.Warn("profstore.recovery.tmp_discarded", "file", filepath.Base(t))
	}
	return nil
}

// Append durably journals one snapshot for bench and folds it into the cell.
// The record is written (and, unless NoSync, fsynced) before the in-memory
// fold moves, so an Append that returned nil survives kill -9 — the
// append-before-ack contract pathprofd's ingest relies on.
func (s *Store) Append(bench string, snap *merge.Snapshot) error {
	return s.journal(recordMeta{Op: OpAppend, Benchmark: bench}, snap)
}

// Install durably journals a cell replacement — the coordinator
// install/handoff path. Replay applies it as replacement, not merge, so
// re-pushed installs stay idempotent across restarts too.
func (s *Store) Install(bench string, snap *merge.Snapshot) error {
	return s.journal(recordMeta{Op: OpInstall, Benchmark: bench}, snap)
}

// Delete durably journals a cell retirement.
func (s *Store) Delete(bench string, k int) error {
	two := 2
	return s.journal(recordMeta{Op: OpDelete, Benchmark: bench, K: k, Iters: &two}, nil)
}

// journal frames, writes, and applies one record.
func (s *Store) journal(meta recordMeta, snap *merge.Snapshot) error {
	if s.cfg.ReadOnly {
		return ErrReadOnly
	}
	payload, err := encodePayload(meta, snap)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return fmt.Errorf("profstore: store failed a previous write, refusing to append after a torn tail: %w", s.failed)
	}
	if s.closed {
		return errors.New("profstore: store is closed")
	}
	if s.active == nil {
		if err := s.openActiveLocked(s.activeSeq); err != nil {
			return err
		}
	}
	frame := frameRecord(payload)
	if _, err := s.active.Write(frame); err != nil {
		s.failed = err
		return fmt.Errorf("profstore: appending record: %w", err)
	}
	if !s.cfg.NoSync {
		if err := s.active.Sync(); err != nil {
			s.failed = err
			return fmt.Errorf("profstore: syncing record: %w", err)
		}
	}
	s.activeLen += int64(len(frame))
	s.records++
	s.applyLocked(meta, snap)
	if s.activeLen >= s.cfg.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	return nil
}

// applyLocked folds one just-journaled record into the in-memory cells. The
// active segment's seq is always above every base's covered seq, so the
// covered-skip rule never fires here.
func (s *Store) applyLocked(meta recordMeta, snap *merge.Snapshot) {
	applyRecord(s.cells, s.baseUpTo, s.activeSeq, meta, snap)
}

// rollLocked seals the active segment and opens the next one, then kicks a
// background compaction if enough sealed segments have piled up.
func (s *Store) rollLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("profstore: sealing segment: %w", err)
	}
	s.sealed = append(s.sealed, s.activeSeq)
	s.active = nil
	if err := s.openActiveLocked(s.activeSeq + 1); err != nil {
		return err
	}
	if len(s.sealed) > s.cfg.MaxSegments {
		s.compactWG.Add(1)
		go func() {
			defer s.compactWG.Done()
			if err := s.Compact(); err != nil {
				s.log.Warn("profstore.compact.failed", "error", err.Error())
			}
		}()
	}
	return nil
}

// openActiveLocked creates (or re-opens for append) the segment with the
// given seq and makes it the active tail.
func (s *Store) openActiveLocked(seq uint64) error {
	if seq == 0 {
		seq = 1
	}
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("profstore: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("profstore: opening segment: %w", err)
	}
	n := st.Size()
	if n == 0 {
		hdr, err := json.Marshal(segmentHeader{Format: LogFormatName, Version: FormatVersion, Seq: seq})
		if err != nil {
			f.Close()
			return err
		}
		hdr = append(hdr, '\n')
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return fmt.Errorf("profstore: writing segment header: %w", err)
		}
		if !s.cfg.NoSync {
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("profstore: syncing segment header: %w", err)
			}
		}
		n = int64(len(hdr))
	}
	s.active, s.activeSeq, s.activeLen = f, seq, n
	return nil
}

// Cell returns a deep copy of one cell's current fold.
func (s *Store) Cell(key CellKey) (*merge.Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.cells[key]
	if !ok {
		return nil, false
	}
	return snap.Clone(), true
}

// Cells returns a deep copy of every live cell — how a daemon primes its
// in-memory fleet map on boot.
func (s *Store) Cells() map[CellKey]*merge.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[CellKey]*merge.Snapshot, len(s.cells))
	for key, snap := range s.cells {
		out[key] = snap.Clone()
	}
	return out
}

// Corruptions returns every blamed record found so far, in discovery order.
func (s *Store) Corruptions() []Corruption {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Corruption(nil), s.corruptions...)
}

// MetricsSnapshot summarizes the store for /metrics.
func (s *Store) MetricsSnapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Segments:       len(s.sealed),
		Records:        s.records,
		Compactions:    s.compactions,
		CorruptRecords: int64(len(s.corruptions)),
		Cells:          len(s.cells),
	}
	if s.active != nil || s.cfg.ReadOnly {
		m.Segments++
	}
	for _, seq := range append(append([]uint64(nil), s.sealed...), s.activeSeq) {
		if st, err := os.Stat(filepath.Join(s.dir, segName(seq))); err == nil {
			m.LogBytes += st.Size()
		}
	}
	return m
}

// Close waits for any in-flight compaction and releases the active segment.
// Close never discards data — every acked record is already on disk.
func (s *Store) Close() error {
	s.compactWG.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}

// blame records one corruption and logs it.
func (s *Store) blame(file string, record int, err error) {
	c := Corruption{File: file, Record: record, Err: err.Error()}
	s.corruptions = append(s.corruptions, c)
	s.log.Warn("profstore.corrupt_record", "file", file, "record", record, "error", err.Error())
}

// decayCounters applies the exponential retention decay: every counter is
// halved shift times (n >> shift) and zeroed keys are dropped, so ancient
// mass fades while the saturating fold of recent snapshots dominates.
func decayCounters(c *profile.Counters, shift uint) {
	for _, m := range c.BL {
		for path, n := range m {
			if n >>= shift; n == 0 {
				delete(m, path)
			} else {
				m[path] = n
			}
		}
	}
	for k, n := range c.Loop {
		if n >>= shift; n == 0 {
			delete(c.Loop, k)
		} else {
			c.Loop[k] = n
		}
	}
	for k, n := range c.TypeI {
		if n >>= shift; n == 0 {
			delete(c.TypeI, k)
		} else {
			c.TypeI[k] = n
		}
	}
	for k, n := range c.TypeII {
		if n >>= shift; n == 0 {
			delete(c.TypeII, k)
		} else {
			c.TypeII[k] = n
		}
	}
	for k, n := range c.Calls {
		if n >>= shift; n == 0 {
			delete(c.Calls, k)
		} else {
			c.Calls[k] = n
		}
	}
}

// recordMeta is the small JSON envelope leading every record payload: the
// operation plus the cell addressing the snapshot bytes (if any) cannot
// carry themselves.
type recordMeta struct {
	// Op is one of OpAppend, OpInstall, OpDelete.
	Op string `json:"op"`
	// Benchmark names the cell's benchmark.
	Benchmark string `json:"benchmark"`
	// K addresses the cell for OpDelete, which carries no snapshot
	// (append/install read it from the snapshot header instead).
	K int `json:"k,omitempty"`
	// Iters is the loop window width a delete names: always written as 2,
	// and any other width is refused on decode (limits.Iters).
	Iters *int `json:"iters,omitempty"`
}

// encodePayload builds a record payload: the meta line followed by the
// snapshot wire bytes (merge.Snapshot.Encode) for ops that carry one.
func encodePayload(meta recordMeta, snap *merge.Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	buf.Write(mb)
	buf.WriteByte('\n')
	if snap != nil {
		if err := snap.Encode(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodePayload parses a record payload back into its meta and snapshot.
func decodePayload(payload []byte) (recordMeta, *merge.Snapshot, error) {
	line, rest, found := bytes.Cut(payload, []byte{'\n'})
	if !found {
		return recordMeta{}, nil, errors.New("profstore: record meta line is unterminated")
	}
	var meta recordMeta
	if err := json.Unmarshal(line, &meta); err != nil {
		return recordMeta{}, nil, fmt.Errorf("profstore: parsing record meta: %w", err)
	}
	switch meta.Op {
	case OpAppend, OpInstall:
		snap, err := merge.Decode(bytes.NewReader(rest))
		if err != nil {
			return recordMeta{}, nil, err
		}
		return meta, snap, nil
	case OpDelete:
		if meta.Iters != nil {
			if err := limits.Iters(*meta.Iters); err != nil {
				return recordMeta{}, nil, fmt.Errorf("profstore: delete record: %w", err)
			}
		}
		return meta, nil, nil
	}
	return recordMeta{}, nil, fmt.Errorf("profstore: unknown record op %q", meta.Op)
}

// frameRecord wraps a payload in the record frame: a 4-byte big-endian
// payload length followed by a 4-byte big-endian CRC-32 (IEEE) of the
// payload, then the payload bytes.
func frameRecord(payload []byte) []byte {
	out := make([]byte, frameLen+len(payload))
	putUint32(out[0:4], uint32(len(payload)))
	putUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[frameLen:], payload)
	return out
}

// frameLen is the fixed record frame size: length then CRC, 4 bytes each.
const frameLen = 8

// maxRecordBytes bounds a single record payload — matching the daemon's
// install body cap — so a corrupted length field cannot drive a giant
// allocation during replay.
const maxRecordBytes = 64 << 20

func putUint32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func getUint32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// segName renders a segment file name for a seq.
func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", SegPrefix, seq, SegSuffix) }

// segSeq parses a segment file name back to its seq (ok=false for
// non-segment names).
func segSeq(name string) (uint64, bool) {
	if !bytes.HasPrefix([]byte(name), []byte(SegPrefix)) || !bytes.HasSuffix([]byte(name), []byte(SegSuffix)) {
		return 0, false
	}
	mid := name[len(SegPrefix) : len(name)-len(SegSuffix)]
	var seq uint64
	for _, r := range mid {
		if r < '0' || r > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(r-'0')
	}
	if len(mid) == 0 {
		return 0, false
	}
	return seq, true
}

// segmentHeader is a segment file's first line.
type segmentHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
}

// baseHeader is a base-profile file's first line. UpToSeq is the recovery
// contract: every log record for this cell in a segment with seq <= UpToSeq
// is already folded into (or superseded by) this base, so replay and
// compaction skip those records instead of double-counting them. Deleted
// marks a tombstone — the cell's last covered operation was OpDelete — kept
// only until the covered segments are gone. Iters is always written as 2; a
// base naming another width is refused (limits.Iters).
type baseHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Benchmark string `json:"benchmark"`
	K         int    `json:"k"`
	Iters     int    `json:"iters"`
	UpToSeq   uint64 `json:"upToSeq"`
	Deleted   bool   `json:"deleted,omitempty"`
}

// sortedCellKeys returns the keys of a cell map in deterministic order.
func sortedCellKeys[V any](m map[CellKey]V) []CellKey {
	keys := make([]CellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		return a.K < b.K
	})
	return keys
}

// logDuration logs a named store phase at debug level.
func (s *Store) logDuration(event string, start time.Time, attrs ...any) {
	attrs = append(attrs, "elapsed_ms", time.Since(start).Milliseconds())
	s.log.Debug(event, attrs...)
}
