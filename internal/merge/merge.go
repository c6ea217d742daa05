// Package merge is the mergeable-snapshot subsystem of the profile
// aggregation service: it folds the counter tables of N independent
// profiling runs — any engine, any counter-store layout — into one profile
// equivalent to a single concatenated run's.
//
// A Snapshot is an associative and commutative value: Merge uses saturating
// addition per counter key (see profile.SatAdd), which is associative and
// commutative even at the ceiling, so shard merge order, merge-tree shape,
// and which replica did the folding cannot change the result. The Counters
// it carries flatten through the canonical profile.Records order, so two
// equal snapshots always encode byte-identically — the property the oracle's
// merge cell and the daemon's fleet profiles both lean on.
//
// Compatibility is checked, not assumed: counter route encodings are only
// meaningful relative to the degree-k extension numbering they were
// collected under, multi-iteration loop keys only relative to the window
// width (iters) they were profiled at, and function indices only relative
// to one program. Merge therefore refuses snapshots whose degree, window
// width, or function count differ (ErrIncompatible) instead of silently
// aggregating garbage.
//
// What merging preserves, mathematically: every counter family is a pure
// sum over run events, so counter tables are additive, and with them every
// quantity estimation derives purely per-key (Definite sums over loop pairs,
// conservation masses). Estimate bounds computed from a merged profile are
// identical to those of the concatenated run because the counters are
// identical key-for-key; Potential bounds are monotone under merge (more
// observed mass never shrinks an upper bound) — both are exercised by this
// package's property tests.
package merge

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"pathprof/internal/obs"
	"pathprof/internal/profile"
)

// ErrIncompatible reports a refused merge: the snapshots disagree on the
// profiled degree, the multi-iteration window width, or the program shape.
var ErrIncompatible = errors.New("merge: incompatible snapshots")

// Snapshot is one run's (or one already-merged fleet's) counters together
// with the compatibility envelope a safe merge needs.
type Snapshot struct {
	// K is the degree of overlap the counters were collected at
	// (-1 = Ball-Larus only).
	K int
	// Iters is the multi-iteration window width the loop counters were
	// collected at (2 = the classic two-iteration setting).
	Iters int
	// NumFuncs is the profiled program's function count; function indices
	// in the counter keys are relative to it.
	NumFuncs int
	// Counters is the canonical counter table. Never nil on a snapshot
	// built through this package.
	Counters *profile.Counters
}

// New wraps already-collected counters in a snapshot profiled at degree k
// with iters-iteration windows (values below 2 mean the classic
// two-iteration setting). The counters are referenced, not copied: callers
// that keep mutating the source (e.g. a live store) should Clone first.
func New(k, iters int, c *profile.Counters) *Snapshot {
	return &Snapshot{K: k, Iters: normIters(iters), NumFuncs: len(c.BL), Counters: c}
}

// Empty returns the identity snapshot for (k, iters, numFuncs): merging it
// into anything, or anything into it, is a no-op in the merge algebra.
func Empty(k, iters, numFuncs int) *Snapshot {
	return &Snapshot{K: k, Iters: normIters(iters), NumFuncs: numFuncs, Counters: profile.NewCounters(numFuncs)}
}

// normIters maps every below-minimum window width (including the zero
// value) to the classic two-iteration setting.
func normIters(iters int) int {
	if iters < 2 {
		return 2
	}
	return iters
}

// Clone deep-copies the snapshot, so the copy can be merged into without
// aliasing the source's counter maps.
func (s *Snapshot) Clone() *Snapshot {
	c := profile.NewCounters(s.NumFuncs)
	addCounters(c, s.Counters)
	return &Snapshot{K: s.K, Iters: s.Iters, NumFuncs: s.NumFuncs, Counters: c}
}

// Compatible reports whether src can merge into s, with a diagnostic error
// (wrapping ErrIncompatible) when it cannot.
func (s *Snapshot) Compatible(src *Snapshot) error {
	if s.K != src.K {
		return fmt.Errorf("%w: degree k=%d vs k=%d", ErrIncompatible, s.K, src.K)
	}
	if normIters(s.Iters) != normIters(src.Iters) {
		return fmt.Errorf("%w: window width iters=%d vs iters=%d", ErrIncompatible, normIters(s.Iters), normIters(src.Iters))
	}
	if s.NumFuncs != src.NumFuncs {
		return fmt.Errorf("%w: %d vs %d functions", ErrIncompatible, s.NumFuncs, src.NumFuncs)
	}
	return nil
}

// Merge folds src into dst with saturating per-key addition. src is never
// mutated. Merge is the package's namesake entry point; the method form
// (*Snapshot).Merge is equivalent.
func Merge(dst, src *Snapshot) error { return dst.Merge(src) }

// Merge folds src into s.
func (s *Snapshot) Merge(src *Snapshot) error {
	if err := s.Compatible(src); err != nil {
		return err
	}
	addCounters(s.Counters, src.Counters)
	return nil
}

// MergeAll folds every snapshot into one fresh snapshot (no input is
// mutated or aliased). It errors on an empty input — the identity needs a
// (k, numFuncs) envelope the caller must pick — and on any incompatibility.
func MergeAll(snaps ...*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("merge: MergeAll of no snapshots")
	}
	var start time.Time
	if obs.DebugEnabled() {
		start = time.Now()
	}
	out := Empty(snaps[0].K, snaps[0].Iters, snaps[0].NumFuncs)
	for _, s := range snaps {
		if err := out.Merge(s); err != nil {
			return nil, err
		}
	}
	if !start.IsZero() {
		obs.Logger().Debug("merge.fold",
			"snapshots", len(snaps), "k", out.K, "mass", out.Mass(),
			"elapsed_ms", time.Since(start).Milliseconds())
	}
	return out, nil
}

// IntoStore folds the snapshot's counters into a live counter store through
// the BulkStore aggregation interface — the path a long-running collector
// uses to keep one dense accumulator per fleet instead of a chain of
// snapshot values. Both bundled stores (nested, arena) implement
// BulkStore; a store that does not is refused.
func IntoStore(dst profile.CounterStore, src *Snapshot) error {
	bs, ok := dst.(profile.BulkStore)
	if !ok {
		return fmt.Errorf("merge: store %T does not support bulk aggregation", dst)
	}
	c := src.Counters
	for fn, m := range c.BL {
		for path, n := range m {
			bs.AddBL(fn, path, n)
		}
	}
	for k, n := range c.Loop {
		bs.AddLoop(k, n)
	}
	for k, n := range c.TypeI {
		bs.AddTypeI(k, n)
	}
	for k, n := range c.TypeII {
		bs.AddTypeII(k, n)
	}
	for k, n := range c.Calls {
		bs.AddCall(k, n)
	}
	return nil
}

// addCounters folds src into dst with saturating addition. dst must have at
// least as many BL function slots as src (guaranteed by Compatible).
func addCounters(dst, src *profile.Counters) {
	for fn, m := range src.BL {
		d := dst.BL[fn]
		for path, n := range m {
			d[path] = profile.SatAdd(d[path], n)
		}
	}
	for k, n := range src.Loop {
		dst.Loop[k] = profile.SatAdd(dst.Loop[k], n)
	}
	for k, n := range src.TypeI {
		dst.TypeI[k] = profile.SatAdd(dst.TypeI[k], n)
	}
	for k, n := range src.TypeII {
		dst.TypeII[k] = profile.SatAdd(dst.TypeII[k], n)
	}
	for k, n := range src.Calls {
		dst.Calls[k] = profile.SatAdd(dst.Calls[k], n)
	}
}

// Mass returns the total counter mass of the snapshot (sum of every count,
// saturating): a cheap aggregate the daemon's metrics and the property
// tests use.
func (s *Snapshot) Mass() uint64 {
	var total uint64
	c := s.Counters
	for _, m := range c.BL {
		for _, n := range m {
			total = profile.SatAdd(total, n)
		}
	}
	for _, n := range c.Loop {
		total = profile.SatAdd(total, n)
	}
	for _, n := range c.TypeI {
		total = profile.SatAdd(total, n)
	}
	for _, n := range c.TypeII {
		total = profile.SatAdd(total, n)
	}
	for _, n := range c.Calls {
		total = profile.SatAdd(total, n)
	}
	return total
}

// snapshotHeader identifies the wire format.
type snapshotHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	K       int    `json:"k"`
	// Iters is omitted (0) for the classic two-iteration width, so
	// two-iteration snapshots keep their exact historical bytes.
	Iters    int `json:"iters,omitempty"`
	NumFuncs int `json:"numFuncs"`
	// Records is the integrity envelope: the exact number of counter
	// records that follow the counters header. Without it, a snapshot
	// truncated at a record boundary would decode "successfully" with
	// silently missing mass — exactly the corruption a distributed fold
	// must refuse, not absorb. Encode always writes it; Decode enforces it
	// when present (nil tolerates pre-envelope bytes).
	Records *int `json:"records,omitempty"`
}

const (
	snapFormat  = "pathprof-snapshot"
	snapVersion = 1
)

// Encode writes the snapshot in its byte-stable wire form: a header line
// followed by the counters' stable serialization. Equal snapshots encode to
// equal bytes because the counter lines flatten through the canonical
// profile.Records order — the same helper Serialize itself uses, so the
// snapshot encoding cannot drift from the profile format's ordering.
func (s *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := snapshotHeader{Format: snapFormat, Version: snapVersion, K: s.K, NumFuncs: s.NumFuncs}
	if it := normIters(s.Iters); it != 2 {
		hdr.Iters = it
	}
	n := len(s.Counters.Records())
	hdr.Records = &n
	if err := json.NewEncoder(bw).Encode(hdr); err != nil {
		return err
	}
	if err := s.Counters.Serialize(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Decode reads a snapshot written by Encode.
func Decode(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		// Name the truncation point: a store replaying a damaged log needs
		// the blame string to say how far the header got, not just that an
		// EOF happened somewhere.
		return nil, fmt.Errorf("merge: reading snapshot header: truncated after %d bytes: %w", len(line), err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("merge: parsing snapshot header: %w", err)
	}
	if hdr.Format != snapFormat {
		return nil, fmt.Errorf("merge: unknown snapshot format %q", hdr.Format)
	}
	if hdr.Version != snapVersion {
		return nil, fmt.Errorf("merge: unsupported snapshot version %d", hdr.Version)
	}
	c, err := profile.ReadCounters(br)
	if err != nil {
		return nil, err
	}
	if len(c.BL) != hdr.NumFuncs {
		return nil, fmt.Errorf("merge: snapshot header says %d functions, counters carry %d", hdr.NumFuncs, len(c.BL))
	}
	if hdr.Records != nil {
		if got := len(c.Records()); got != *hdr.Records {
			return nil, fmt.Errorf("merge: snapshot truncated or padded: header says %d records, counters carry %d",
				*hdr.Records, got)
		}
	}
	return &Snapshot{K: hdr.K, Iters: normIters(hdr.Iters), NumFuncs: hdr.NumFuncs, Counters: c}, nil
}
