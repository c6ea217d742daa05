package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pathprof/internal/obs"
)

// span is one timed interval around a call into a layer's public function.
// Spans of one op share Op and nest through Parent (an index into the
// recorder's spans; -1 marks the op's root).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// jobTrace is a daemon's own span tree for one job, fetched from
// GET /v1/jobs/{id}/trace and kept next to the client-side spans.
type jobTrace struct {
	Op   int           `json:"op"`
	Root *obs.SpanNode `json:"root"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// *recorder records nothing, which is how untraced ops skip every span.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	trees []jobTrace
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (r *recorder) begin(op int, name, tag string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Op: op, Name: name, Tag: tag, Parent: parent, Start: now})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// addTree keeps a daemon job trace.
func (r *recorder) addTree(op int, root *obs.SpanNode) {
	if r == nil || root == nil {
		return
	}
	r.mu.Lock()
	r.trees = append(r.trees, jobTrace{Op: op, Root: root})
	r.mu.Unlock()
}

// agg sums a quantity over n occurrences.
type agg struct {
	ms float64
	n  int
}

func (a agg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.ms / float64(a.n)
}

// add folds one occurrence into the named entry of m.
func add(m map[string]agg, name string, v float64) {
	a := m[name]
	a.ms += v
	a.n++
	m[name] = a
}

// selfMs sums each span's self time — its duration minus the part of it its
// child spans cover — in ms, keyed by span name and, for tagged spans, also
// by name + "." + tag.
func (r *recorder) selfMs() map[string]agg {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]agg{}
	for i, s := range r.spans {
		self := float64(s.End-s.Start-covered(s.Start, s.End, children[i])) / 1e6
		add(out, s.Name, self)
		if s.Tag != "" {
			add(out, s.Name+"."+s.Tag, self)
		}
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores every span and job trace as JSON lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	for _, t := range r.trees {
		if err == nil {
			err = enc.Encode(t)
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
