package clustertest

import (
	"bytes"
	"net/http"
	"sync"
	"time"

	"pathprof/internal/merge"
	"pathprof/internal/profile"
)

// Fault selects what a FaultProxy does to traffic passing through it.
type Fault int

const (
	// FaultNone passes traffic through untouched.
	FaultNone Fault = iota
	// Fault429Storm rejects every chunk call with 429 — a worker drowning
	// in backpressure. Other routes still work, so the storm exercises
	// exactly the chunk call's backpressure-retry path.
	Fault429Storm
	// FaultSlow delays every response by the proxy's Delay — long enough
	// past the coordinator's attempt timeout, this is a hung worker.
	FaultSlow
	// FaultTamperTruncate cuts the snapshot of every chunk answer off
	// mid-stream, leaving its status line intact: a crashed or buggy worker
	// flushing half a snapshot.
	FaultTamperTruncate
	// FaultTamperHeader rewrites the snapshot header's degree in every
	// chunk answer, leaving its status line intact: a worker answering
	// from the wrong profiling cell. Decodes fine; must be refused with
	// ErrIncompatible.
	FaultTamperHeader
	// FaultTamperRecord adds a loop record naming function 999 to every
	// chunk answer's snapshot and re-encodes it, so it decodes cleanly
	// and fits the job's cell: only a check against the program can
	// refuse it.
	FaultTamperRecord
	// FaultEvicted loses every chunk answer: the worker runs the chunk to
	// completion, but the coordinator reads 404 "no such job", as from a
	// worker that restarted and forgot the chunk. Every attempt on it
	// fails after the work is done and must be retried elsewhere.
	FaultEvicted
)

// FaultProxy wraps a worker's HTTP handler and injects one fault class at a
// time. All methods are safe for concurrent use; fault flips apply to
// requests that arrive after the flip.
type FaultProxy struct {
	next http.Handler

	mu    sync.Mutex
	fault Fault
	delay time.Duration
}

// NewFaultProxy wraps next with a pass-through proxy.
func NewFaultProxy(next http.Handler) *FaultProxy {
	return &FaultProxy{next: next}
}

// Set flips the injected fault class.
func (p *FaultProxy) Set(f Fault) {
	p.mu.Lock()
	p.fault = f
	p.mu.Unlock()
}

// SetSlow flips to FaultSlow with the given per-response delay.
func (p *FaultProxy) SetSlow(d time.Duration) {
	p.mu.Lock()
	p.fault = FaultSlow
	p.delay = d
	p.mu.Unlock()
}

// state reads the current fault configuration.
func (p *FaultProxy) state() (Fault, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fault, p.delay
}

// isChunk reports whether the request is a coordinator's chunk call — the
// call every fault but FaultSlow aims at.
func isChunk(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == "/v1/chunks"
}

func (p *FaultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fault, delay := p.state()
	if fault == FaultSlow {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	}
	if fault == FaultNone || fault == FaultSlow || !isChunk(r) {
		p.next.ServeHTTP(w, r)
		return
	}
	if fault == Fault429Storm {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"injected backpressure storm"}`)) //nolint:errcheck
		return
	}
	rec := &recordingWriter{header: http.Header{}}
	p.next.ServeHTTP(rec, r)
	if fault == FaultEvicted {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"no such job"}`)) //nolint:errcheck
		return
	}
	// Tamper with the snapshot lines only: the status line before them
	// arrives intact, so only the snapshot's own checks can notice.
	body := rec.body.Bytes()
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		status, snap := body[:i+1], body[i+1:]
		if fault == FaultTamperTruncate {
			// Cut at a line boundary when possible: the nastier
			// truncation, because the record stream still parses and
			// only the integrity envelope can notice.
			if j := bytes.LastIndexByte(snap[:len(snap)/2], '\n'); j > 0 {
				snap = snap[:j+1]
			} else {
				snap = snap[:len(snap)/2]
			}
		} else if fault == FaultTamperRecord {
			if s, err := merge.Decode(bytes.NewReader(snap)); err == nil {
				s.Counters.Loop[profile.LoopKey{Func: 999}]++
				var b bytes.Buffer
				if s.Encode(&b) == nil {
					snap = b.Bytes()
				}
			}
		} else if j := bytes.Index(snap, []byte(`"k":`)); j >= 0 {
			// Rewrite the snapshot header's degree: "k":N becomes "k":7N.
			snap = append(append(append([]byte{}, snap[:j]...), []byte(`"k":7`)...), snap[j+4:]...)
		}
		body = append(append([]byte{}, status...), snap...)
	}
	for k, vs := range rec.header {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.status())
	w.Write(body) //nolint:errcheck
}

// recordingWriter buffers a response so the tamper faults can mangle it
// before it reaches the coordinator.
type recordingWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recordingWriter) Header() http.Header { return r.header }
func (r *recordingWriter) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recordingWriter) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recordingWriter) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}
