package profile

import "sort"

// This file defines the canonical flattened-record form of a Counters value
// and the one total order every stable rendering of counters must use.
// Serialize and the merge subsystem's snapshot encoding both flatten through
// Records, so an ordering bug fixed here (the Full field was once missing
// from the sort key, making "stable" output depend on map iteration order)
// cannot be re-introduced by a second, diverging copy of the comparator.

// Record is one counter in the canonical flattened form. Field usage per
// Kind matches the serialized line-JSON records.
type Record struct {
	Kind string `json:"kind"` // "bl", "loop", "t1", "t2", "call"
	// Fields used per kind; zero values omitted.
	Func   int   `json:"func,omitempty"`
	Loop   int   `json:"loop,omitempty"`
	Caller int   `json:"caller,omitempty"`
	Site   int   `json:"site,omitempty"`
	Callee int   `json:"callee,omitempty"`
	Path   int64 `json:"path,omitempty"`
	Base   int64 `json:"base,omitempty"`
	Ext    int64 `json:"ext,omitempty"`
	Prefix int64 `json:"prefix,omitempty"`
	Full   bool  `json:"full,omitempty"`
	// N is the counter's count.
	N uint64 `json:"n"`
}

// RecordLess is the canonical total order on records. Every field that is
// part of some counter key participates — including Full, which is part of
// the loop-counter key: without it the order of truncated-vs-full records
// with equal ids would follow map iteration order and no rendering built on
// this order would be stable.
func RecordLess(a, b Record) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	if a.Caller != b.Caller {
		return a.Caller < b.Caller
	}
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	if a.Callee != b.Callee {
		return a.Callee < b.Callee
	}
	if a.Loop != b.Loop {
		return a.Loop < b.Loop
	}
	if a.Base != b.Base {
		return a.Base < b.Base
	}
	if a.Path != b.Path {
		return a.Path < b.Path
	}
	if a.Prefix != b.Prefix {
		return a.Prefix < b.Prefix
	}
	if a.Ext != b.Ext {
		return a.Ext < b.Ext
	}
	return !a.Full && b.Full
}

// Records flattens the counters into the canonical sorted record list. Only
// non-zero-count map entries are materialized by the stores, so the result
// is independent of which store collected the counters.
func (c *Counters) Records() []Record {
	var recs []Record
	for f, m := range c.BL {
		for id, n := range m {
			recs = append(recs, Record{Kind: "bl", Func: f, Path: id, N: n})
		}
	}
	for k, n := range c.Loop {
		recs = append(recs, Record{Kind: "loop", Func: k.Func, Loop: k.Loop, Base: k.Base, Ext: k.Ext, Full: k.Full, N: n})
	}
	for k, n := range c.TypeI {
		recs = append(recs, Record{Kind: "t1", Caller: k.Caller, Site: k.Site, Callee: k.Callee, Prefix: k.Prefix, Ext: k.Ext, N: n})
	}
	for k, n := range c.TypeII {
		recs = append(recs, Record{Kind: "t2", Caller: k.Caller, Site: k.Site, Callee: k.Callee, Path: k.Path, Ext: k.Ext, N: n})
	}
	for k, n := range c.Calls {
		recs = append(recs, Record{Kind: "call", Caller: k.Caller, Site: k.Site, Callee: k.Callee, N: n})
	}
	sort.Slice(recs, func(i, j int) bool { return RecordLess(recs[i], recs[j]) })
	return recs
}

// NumRecords returns len(c.Records()) — one record per map entry — without
// flattening or sorting anything.
func (c *Counters) NumRecords() int {
	n := len(c.Loop) + len(c.TypeI) + len(c.TypeII) + len(c.Calls)
	for _, m := range c.BL {
		n += len(m)
	}
	return n
}

// SatAdd returns a+b, saturating at the uint64 maximum instead of wrapping.
// It is the one addition the aggregation layers (bulk store adds, snapshot
// merges) use, so merged fleet profiles degrade to a pinned ceiling rather
// than to a silently wrapped — and therefore wrong — small count.
func SatAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}
