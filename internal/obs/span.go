package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one named interval in an in-process trace tree: a monotonic start
// time (time.Now carries the monotonic clock), an end set by End, string
// attributes, and child spans registered concurrently by any goroutine
// holding the parent. Spans are created with NewSpan (a root) or
// Span.Child, and snapshotted as a SpanNode tree with Tree — the shape the
// server serves on GET /v1/jobs/{id}/trace and the CLIs render behind
// -trace. A span can also hold trees recorded by another process (Graft).
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    map[string]string
	children []*Span
	grafts   []graft
}

// graft is a span tree recorded by another process, placed on this
// process's clock: its root starts at start.
type graft struct {
	tree  *SpanNode
	start time.Time
}

// NewSpan starts a new root span named name.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a new span under s. Safe for concurrent callers — shard
// fan-outs register their spans from worker goroutines.
func (s *Span) Child(name string) *Span {
	c := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches a string attribute to the span (last write per key wins).
func (s *Span) SetAttr(key, value string) {
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Graft hangs tree, a span tree recorded by another process, under s — how
// a coordinator keeps the worker's trace that came back in a chunk answer.
// The two processes' clocks are not comparable, so the tree is re-based: its
// root is placed to end at arrived, the local time its answer arrived, and
// never to start before s. The tree must not be mutated afterwards.
func (s *Span) Graft(tree *SpanNode, arrived time.Time) {
	start := arrived.Add(-time.Duration(tree.DurationNs))
	if start.Before(s.start) {
		start = s.start
	}
	s.mu.Lock()
	s.grafts = append(s.grafts, graft{tree: tree, start: start})
	s.mu.Unlock()
}

// End marks the span finished. The first End wins; later calls are no-ops,
// so deferred Ends compose with explicit early ones.
func (s *Span) End() {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Name returns the span's stage name.
func (s *Span) Name() string { return s.name }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }

// Duration returns end−start for a finished span, and the elapsed time so
// far for one still open.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// SpanNode is the serializable snapshot of one span: offsets are
// nanoseconds relative to the tree's root start, so a trace is
// self-contained and wall-clock-free.
type SpanNode struct {
	// Name is the stage name (the taxonomy in DESIGN.md §12 for server
	// job traces).
	Name string `json:"name"`
	// StartNs is the span's start offset from the root span's start.
	StartNs int64 `json:"start_ns"`
	// DurationNs is the span's length; for a still-open span it is the
	// elapsed time at snapshot, with Open set.
	DurationNs int64 `json:"duration_ns"`
	// Open marks a span that had not ended when the tree was snapshotted.
	Open bool `json:"open,omitempty"`
	// Attrs carries the span's string attributes.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are the span's sub-spans in start order.
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree snapshots the span and everything under it. Offsets in the returned
// nodes are relative to s.Start, so calling Tree on a subtree re-roots it.
func (s *Span) Tree() *SpanNode {
	return s.tree(s.start)
}

func (s *Span) tree(root time.Time) *SpanNode {
	s.mu.Lock()
	n := &SpanNode{
		Name:    s.name,
		StartNs: s.start.Sub(root).Nanoseconds(),
	}
	if s.end.IsZero() {
		n.DurationNs = time.Since(s.start).Nanoseconds()
		n.Open = true
	} else {
		n.DurationNs = s.end.Sub(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		n.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			n.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	grafts := append([]graft(nil), s.grafts...)
	s.mu.Unlock()
	for _, c := range children {
		n.Children = append(n.Children, c.tree(root))
	}
	for _, g := range grafts {
		n.Children = append(n.Children, g.tree.shifted(g.start.Sub(root).Nanoseconds()-g.tree.StartNs))
	}
	sort.SliceStable(n.Children, func(i, j int) bool {
		return n.Children[i].StartNs < n.Children[j].StartNs
	})
	return n
}

// shifted deep-copies n with every start offset moved by off nanoseconds.
func (n *SpanNode) shifted(off int64) *SpanNode {
	c := *n
	c.StartNs += off
	c.Children = nil
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.shifted(off))
	}
	return &c
}

// Render formats a span tree as indented text, one line per span with its
// start offset and duration — the -trace output of pathprof and
// experiments.
func Render(n *SpanNode) string {
	var b strings.Builder
	renderNode(&b, n, 0)
	return b.String()
}

func renderNode(b *strings.Builder, n *SpanNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	open := ""
	if n.Open {
		open = " (open)"
	}
	attrs := ""
	if len(n.Attrs) > 0 {
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k + "=" + n.Attrs[k]
		}
		attrs = " {" + strings.Join(parts, " ") + "}"
	}
	fmt.Fprintf(b, "%-12s +%8.3fms %10.3fms%s%s\n",
		n.Name, float64(n.StartNs)/1e6, float64(n.DurationNs)/1e6, open, attrs)
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

// Walk visits n and every descendant in depth-first pre-order, calling fn
// with each node and its depth.
func Walk(n *SpanNode, fn func(node *SpanNode, depth int)) {
	walkNode(n, 0, fn)
}

func walkNode(n *SpanNode, depth int, fn func(*SpanNode, int)) {
	fn(n, depth)
	for _, c := range n.Children {
		walkNode(c, depth+1, fn)
	}
}
