package profstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathprof/internal/merge"
	"pathprof/internal/obs"
)

// compactCrash, when non-nil, is called at each named step of a compaction
// round. Crash-recovery tests point it at panic to die inside the two
// windows the state machine must survive: "bases-tmp" (temporaries written,
// nothing published) and "bases-renamed" (bases published, covered segments
// not yet deleted).
var compactCrash func(step string)

// Compact folds every sealed log segment into the per-cell base profiles and
// deletes the covered segments. The round is crash-safe at every step:
//
//  1. Bases and sealed segments are re-read from disk (sealed files are
//     immutable) and folded with the covered-skip rule, oldest first.
//  2. If DecayShift is set, existing base counters decay first (new records
//     keep full weight), so history fades while recent mass dominates.
//  3. Every cell's new base is written to a temporary, synced, then
//     published by rename with upToSeq = the highest folded segment. A cell
//     whose folded history ends in a delete publishes a tombstone instead.
//  4. Covered segments are deleted, then tombstones (now pointing at
//     nothing) are removed.
//
// A crash before any rename changes nothing (temporaries are discarded on
// open). A crash between renames leaves some cells covered and some not —
// exactly what per-cell upToSeq exists for: replay skips covered records per
// cell and re-folds the rest from the still-present segments. A crash after
// the renames but before segment deletion double-stores but never
// double-counts, and the next round finishes the deletion.
func (s *Store) Compact() error {
	if s.cfg.ReadOnly {
		return ErrReadOnly
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	sealed := append([]uint64(nil), s.sealed...)
	s.mu.Unlock()
	if len(sealed) == 0 {
		return nil
	}
	maxSeq := sealed[len(sealed)-1]

	span := obs.NewSpan(StageCompact)
	defer span.End()
	start := time.Now()

	// Step 1+2: rebuild the covered fold from disk only.
	cells := map[CellKey]*merge.Snapshot{}
	upTo := map[CellKey]uint64{}
	deleted := map[CellKey]bool{}
	s.mu.Lock()
	if err := reloadBases(cells, upTo, deleted, filepath.Join(s.dir, BaseDirName)); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	if s.cfg.DecayShift > 0 {
		for _, snap := range cells {
			decayCounters(snap.Counters, s.cfg.DecayShift)
		}
	}
	folded := 0
	for _, seq := range sealed {
		n, err := s.foldSegment(seq, cells, upTo, deleted)
		if err != nil {
			return err
		}
		folded += n
	}

	// Step 3: publish. Tombstones cover cells deleted by the folded
	// records; they exist only until step 4 removes the segments that
	// could resurrect the cell.
	baseDir := filepath.Join(s.dir, BaseDirName)
	keys := sortedCellKeys(cells)
	for key := range deleted {
		if _, live := cells[key]; !live {
			keys = append(keys, key)
		}
	}
	var tmps []string
	for _, key := range keys {
		tmp := filepath.Join(baseDir, baseName(key)+TmpSuffix)
		if err := writeBaseFile(tmp, key, cells[key], maxSeq); err != nil {
			return err
		}
		tmps = append(tmps, tmp)
	}
	if compactCrash != nil {
		compactCrash("bases-tmp")
	}
	for _, tmp := range tmps {
		final := tmp[:len(tmp)-len(TmpSuffix)]
		if err := os.Rename(tmp, final); err != nil {
			return fmt.Errorf("profstore: publishing base: %w", err)
		}
	}
	if err := syncDir(baseDir); err != nil {
		return err
	}
	if compactCrash != nil {
		compactCrash("bases-renamed")
	}

	// Step 4: drop the covered segments, then the now-pointless tombstones.
	for _, seq := range sealed {
		if err := os.Remove(filepath.Join(s.dir, segName(seq))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("profstore: removing compacted segment: %w", err)
		}
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	for key := range deleted {
		if _, live := cells[key]; !live {
			if err := os.Remove(filepath.Join(baseDir, baseName(key))); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("profstore: removing tombstone: %w", err)
			}
		}
	}

	// Bookkeeping — and, under decay, the in-memory fold is rebuilt from
	// the decayed disk state so serving and disk never disagree.
	s.mu.Lock()
	defer s.mu.Unlock()
	var remaining []uint64
	for _, seq := range s.sealed {
		if seq > maxSeq {
			remaining = append(remaining, seq)
		}
	}
	s.sealed = remaining
	for _, key := range keys {
		if _, live := cells[key]; live {
			s.baseUpTo[key] = maxSeq
		} else {
			delete(s.baseUpTo, key)
		}
	}
	s.compactions++
	if s.cfg.DecayShift > 0 {
		if err := s.rebuildCellsLocked(cells, upToAll(keys, maxSeq), maxSeq); err != nil {
			return err
		}
	}
	s.logDuration("profstore.compact.done", start,
		"segments", len(sealed), "records", folded, "cells", len(cells))
	return nil
}

// upToAll maps every key to the same covered seq — the state after a
// completed publish step.
func upToAll(keys []CellKey, seq uint64) map[CellKey]uint64 {
	m := make(map[CellKey]uint64, len(keys))
	for _, k := range keys {
		m[k] = seq
	}
	return m
}

// rebuildCellsLocked replaces the in-memory fold with the compacted cells
// plus every record in segments newer than maxSeq (still on disk: each
// append syncs before acking, and the caller holds mu so the tail is quiet).
func (s *Store) rebuildCellsLocked(cells map[CellKey]*merge.Snapshot, upTo map[CellKey]uint64, maxSeq uint64) error {
	seqs, err := s.listSegments()
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq <= maxSeq {
			continue
		}
		if _, err := s.foldSegment(seq, cells, upTo, map[CellKey]bool{}); err != nil {
			return err
		}
	}
	s.cells = cells
	return nil
}

// reloadBases re-reads the published bases into fresh maps for a compaction
// round, marking tombstones in dead. Unreadable bases were already blamed
// during open; here they simply contribute nothing, so the rebuilt base
// holds exactly the records replay could still prove.
func reloadBases(cells map[CellKey]*merge.Snapshot, upTo map[CellKey]uint64, dead map[CellKey]bool, baseDir string) error {
	entries, err := os.ReadDir(baseDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("profstore: reading base directory: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != BaseSuffix {
			continue
		}
		hdr, snap, err := readBaseFile(filepath.Join(baseDir, e.Name()))
		if err != nil {
			continue
		}
		key := CellKey{Bench: hdr.Benchmark, K: hdr.K}
		upTo[key] = hdr.UpToSeq
		if hdr.Deleted {
			dead[key] = true
		} else {
			cells[key] = snap
		}
	}
	return nil
}

// foldSegment replays one sealed segment from disk into the compaction
// fold. Damage is blamed exactly as during open; deleted records which cells
// ended in a delete so step 3 can write tombstones for them.
func (s *Store) foldSegment(seq uint64, cells map[CellKey]*merge.Snapshot, upTo map[CellKey]uint64, deleted map[CellKey]bool) (int, error) {
	name := segName(seq)
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return 0, fmt.Errorf("profstore: reading segment: %w", err)
	}
	off, err := checkSegmentHeader(data, seq)
	if err != nil {
		return 0, nil // blamed during open; nothing to fold
	}
	applied := 0
	for rec := 0; off < len(data); rec++ {
		payload, next, perr := parseFrame(data, off)
		if perr != nil {
			if perr == errCRC {
				off = next
				continue
			}
			return applied, nil // torn or framing lost; already blamed
		}
		meta, snap, derr := decodePayload(payload)
		if derr != nil {
			off = next
			continue
		}
		key := cellKeyOf(meta, snap)
		if applyRecord(cells, upTo, seq, meta, snap) {
			applied++
			switch meta.Op {
			case OpDelete:
				deleted[key] = true
			default:
				delete(deleted, key)
			}
		}
		off = next
	}
	return applied, nil
}

// cellKeyOf resolves the cell a record addresses.
func cellKeyOf(meta recordMeta, snap *merge.Snapshot) CellKey {
	if meta.Op == OpDelete {
		return CellKey{Bench: meta.Benchmark, K: meta.K}
	}
	return CellKey{Bench: meta.Benchmark, K: snap.K}
}

// writeBaseFile writes one base profile (or tombstone, when snap is nil) to
// path and syncs it. The caller publishes it by rename.
func writeBaseFile(path string, key CellKey, snap *merge.Snapshot, upToSeq uint64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("profstore: writing base: %w", err)
	}
	defer f.Close()
	hdr := baseHeader{
		Format: BaseFormatName, Version: FormatVersion,
		Benchmark: key.Bench, K: key.K, Iters: 2,
		UpToSeq: upToSeq, Deleted: snap == nil,
	}
	if err := writeJSONLine(f, hdr); err != nil {
		return err
	}
	if snap != nil {
		var buf writerBuffer
		if err := snap.Encode(&buf); err != nil {
			return err
		}
		if _, err := f.Write(frameRecord(buf.b)); err != nil {
			return fmt.Errorf("profstore: writing base: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("profstore: syncing base: %w", err)
	}
	return nil
}

// writeJSONLine marshals v and writes it followed by a newline.
func writeJSONLine(f *os.File, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := f.Write(b); err != nil {
		return fmt.Errorf("profstore: writing header: %w", err)
	}
	return nil
}

// writerBuffer is a minimal append-only byte sink for Encode.
type writerBuffer struct{ b []byte }

// Write appends p to the buffer.
func (w *writerBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// syncDir fsyncs a directory so renames and removals inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("profstore: syncing directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("profstore: syncing directory: %w", err)
	}
	return nil
}
