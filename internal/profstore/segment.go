package profstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pathprof/internal/limits"
	"pathprof/internal/merge"
)

// errTorn marks a frame cut short by a crash mid-write: the length prefix,
// checksum, or payload extends past the end of the file. On the final
// segment this is the expected kill -9 signature and the tail is truncated
// (the record was never acked); anywhere else the file has lost bytes in the
// middle and the remainder is skipped with blame.
var errTorn = errors.New("profstore: torn record frame")

// errCRC marks a frame whose payload bytes no longer match their recorded
// checksum. The frame itself is intact, so replay skips exactly this record
// and continues with the next one.
var errCRC = errors.New("profstore: record checksum mismatch")

// errHeaderTorn marks a segment whose header line has no terminating
// newline: what a crash leaves before a fresh segment's header landed.
var errHeaderTorn = errors.New("profstore: segment header is unterminated")

// parseFrame reads one record frame at data[off:]. It returns the payload
// and the offset of the next frame. err is errTorn when the frame runs past
// the end of the data, errCRC (with next still valid) when the checksum
// fails, or a fatal framing error when the length field is implausible.
func parseFrame(data []byte, off int) (payload []byte, next int, err error) {
	if len(data)-off < frameLen {
		return nil, off, errTorn
	}
	n := int(getUint32(data[off : off+4]))
	if n > maxRecordBytes {
		return nil, off, fmt.Errorf("profstore: record length %d exceeds the %d-byte cap; framing lost", n, maxRecordBytes)
	}
	want := getUint32(data[off+4 : off+8])
	body := data[off+frameLen:]
	if len(body) < n {
		return nil, off, errTorn
	}
	payload = body[:n]
	next = off + frameLen + n
	if crc32.ChecksumIEEE(payload) != want {
		return payload, next, errCRC
	}
	return payload, next, nil
}

// applyRecord folds one decoded record into cells, honoring the covered-skip
// rule: a record in a segment whose seq the cell's base already covers
// (seq <= upTo[cell]) is part of the base and must not be counted again.
// It reports whether the record was applied.
func applyRecord(cells map[CellKey]*merge.Snapshot, upTo map[CellKey]uint64, seq uint64, meta recordMeta, snap *merge.Snapshot) bool {
	key := cellKeyOf(meta, snap)
	if seq <= upTo[key] {
		return false
	}
	switch meta.Op {
	case OpAppend:
		if cur := cells[key]; cur != nil {
			cur.Merge(snap) //nolint:errcheck // same cell key is compatible by construction
		} else {
			cells[key] = snap.Clone()
		}
	case OpInstall:
		cells[key] = snap.Clone()
	case OpDelete:
		delete(cells, key)
	}
	return true
}

// replay rebuilds the in-memory fold from disk: bases first, then every
// surviving log record in segment order. It returns the number of records
// applied. Only the final segment may be repaired (torn-tail truncation);
// damage anywhere else is blamed and skipped so one bad byte cannot take
// down the store.
func (s *Store) replay() (int, error) {
	start := time.Now()
	if err := s.loadBases(); err != nil {
		return 0, err
	}
	seqs, err := s.listSegments()
	if err != nil {
		return 0, err
	}
	applied := 0
	for i, seq := range seqs {
		n, err := s.replaySegment(seq, i == len(seqs)-1)
		if err != nil {
			return applied, err
		}
		applied += n
	}
	if len(seqs) > 0 {
		s.activeSeq = seqs[len(seqs)-1]
		s.sealed = seqs[:len(seqs)-1]
	} else {
		// No segments on disk (fresh store, or every segment compacted and
		// the directory hand-pruned): the next segment must open above
		// every base's covered seq, or its records would be skipped as
		// already-folded.
		for _, upTo := range s.baseUpTo {
			if upTo >= s.activeSeq {
				s.activeSeq = upTo + 1
			}
		}
	}
	s.logDuration("profstore.replay.done", start, "records", applied)
	return applied, nil
}

// listSegments returns every segment seq present in the store directory,
// ascending.
func (s *Store) listSegments() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("profstore: reading store directory: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := segSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replaySegment replays one segment file into the store's cells. last marks
// the final (possibly torn) segment, the only one repair may touch.
func (s *Store) replaySegment(seq uint64, last bool) (int, error) {
	name := segName(seq)
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("profstore: reading segment: %w", err)
	}
	off, err := checkSegmentHeader(data, seq)
	switch {
	case err == nil:
	case !last || s.cfg.ReadOnly:
		s.blame(name, -1, err)
		return 0, nil
	case errors.Is(err, errHeaderTorn):
		// The daemon died before the fresh segment's header landed;
		// nothing in this file was ever acked, so reset it.
		s.log.Warn("profstore.recovery.header_torn", "file", name, "error", err.Error())
		if terr := os.Truncate(path, 0); terr != nil {
			return 0, fmt.Errorf("profstore: truncating torn segment header: %w", terr)
		}
		return 0, nil
	default:
		// A complete header that is refused heads records that may have
		// been acked: the store appends to this segment, so opening must
		// fail rather than write past a header it cannot read.
		return 0, fmt.Errorf("profstore: segment %s: %w", name, err)
	}
	applied := 0
	for rec := 0; off < len(data); rec++ {
		payload, next, perr := parseFrame(data, off)
		if perr != nil {
			if errors.Is(perr, errTorn) && last && !s.cfg.ReadOnly {
				s.log.Warn("profstore.recovery.tail_truncated",
					"file", name, "record", rec, "dropped_bytes", len(data)-off)
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return applied, fmt.Errorf("profstore: truncating torn tail: %w", terr)
				}
				return applied, nil
			}
			if !errors.Is(perr, errCRC) {
				// Torn mid-log or framing lost: the rest of the segment
				// cannot be located, so blame once and stop here.
				s.blame(name, rec, perr)
				return applied, nil
			}
			s.blame(name, rec, perr)
			off = next
			continue
		}
		meta, snap, derr := decodePayload(payload)
		if derr != nil {
			s.blame(name, rec, derr)
			off = next
			continue
		}
		if applyRecord(s.cells, s.baseUpTo, seq, meta, snap) {
			applied++
		}
		off = next
	}
	return applied, nil
}

// checkSegmentHeader validates a segment's header line against the seq its
// file name claims and returns the offset of the first record frame.
func checkSegmentHeader(data []byte, seq uint64) (int, error) {
	line, _, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return 0, errHeaderTorn
	}
	var hdr segmentHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return 0, fmt.Errorf("profstore: parsing segment header: %w", err)
	}
	if hdr.Format != LogFormatName {
		return 0, fmt.Errorf("profstore: segment format %q, want %q", hdr.Format, LogFormatName)
	}
	if hdr.Version != FormatVersion {
		return 0, fmt.Errorf("profstore: segment version %d, want %d", hdr.Version, FormatVersion)
	}
	if hdr.Seq != seq {
		return 0, fmt.Errorf("profstore: segment header seq %d does not match file name seq %d", hdr.Seq, seq)
	}
	return len(line) + 1, nil
}

// loadBases reads every compacted base profile into the store's cells and
// records each cell's covered seq. An unreadable base is blamed and skipped:
// its cell rebuilds from whatever log records survive, which can only lose
// mass the blame already points at.
func (s *Store) loadBases() error {
	baseDir := filepath.Join(s.dir, BaseDirName)
	entries, err := os.ReadDir(baseDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // a store that has never compacted
		}
		return fmt.Errorf("profstore: reading base directory: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != BaseSuffix {
			continue
		}
		rel := BaseDirName + "/" + e.Name()
		hdr, snap, err := readBaseFile(filepath.Join(baseDir, e.Name()))
		if err != nil {
			s.blame(rel, -1, err)
			continue
		}
		key := CellKey{Bench: hdr.Benchmark, K: hdr.K}
		s.baseUpTo[key] = hdr.UpToSeq
		if !hdr.Deleted {
			s.cells[key] = snap
		}
	}
	return nil
}

// readBaseFile parses one base-profile file: the header line, then (unless
// the base is a tombstone) a single CRC-framed snapshot payload.
func readBaseFile(path string) (baseHeader, *merge.Snapshot, error) {
	var hdr baseHeader
	data, err := os.ReadFile(path)
	if err != nil {
		return hdr, nil, err
	}
	line, rest, found := bytes.Cut(data, []byte{'\n'})
	if !found {
		return hdr, nil, errors.New("profstore: base header is unterminated")
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("profstore: parsing base header: %w", err)
	}
	if hdr.Format != BaseFormatName {
		return hdr, nil, fmt.Errorf("profstore: base format %q, want %q", hdr.Format, BaseFormatName)
	}
	if hdr.Version != FormatVersion {
		return hdr, nil, fmt.Errorf("profstore: base version %d, want %d", hdr.Version, FormatVersion)
	}
	if err := limits.Iters(hdr.Iters); err != nil {
		return hdr, nil, fmt.Errorf("profstore: base header: %w", err)
	}
	if hdr.Deleted {
		return hdr, nil, nil
	}
	payload, _, err := parseFrame(rest, 0)
	if err != nil {
		return hdr, nil, err
	}
	snap, err := merge.Decode(bytes.NewReader(payload))
	if err != nil {
		return hdr, nil, err
	}
	return hdr, snap, nil
}

// baseName renders a cell's base-profile file name. @ separates the key
// components, the last the fixed window width i2; benchmark names in this
// repo ("181.mcf") never contain it.
func baseName(key CellKey) string {
	return fmt.Sprintf("%s@k%d@i2%s", key.Bench, key.K, BaseSuffix)
}
