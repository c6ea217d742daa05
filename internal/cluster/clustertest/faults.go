package clustertest

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Fault selects what a FaultProxy does to traffic passing through it.
type Fault int

const (
	// FaultNone passes traffic through untouched.
	FaultNone Fault = iota
	// Fault429Storm rejects every job submission with 429 — a worker
	// drowning in backpressure. Reads still work, so the storm exercises
	// exactly the submit-retry path.
	Fault429Storm
	// FaultSlow delays every response by the proxy's Delay — long enough
	// past the coordinator's attempt timeout, this is a hung worker.
	FaultSlow
	// FaultTamperTruncate serves job-profile responses cut off mid-stream:
	// a crashed or buggy worker flushing half a snapshot.
	FaultTamperTruncate
	// FaultTamperHeader rewrites the snapshot header's degree on
	// job-profile responses: a worker answering from the wrong profiling
	// cell. Decodes fine; must die in the fold with ErrIncompatible.
	FaultTamperHeader
	// FaultEvicted answers every job read with 404 "no such job": a worker
	// whose retention bound has evicted the sub-jobs it accepted, or one
	// that restarted and forgot them. Submissions still land, so every
	// attempt on it fails after the submit and must be retried elsewhere.
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

// isJobProfile reports whether the request fetches a sub-job's merged
// snapshot — the response the tamper faults mangle.
func isJobProfile(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
		strings.HasSuffix(r.URL.Path, "/profile")
}

func (p *FaultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fault, delay := p.state()
	switch fault {
	case Fault429Storm:
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"injected backpressure storm"}`)) //nolint:errcheck
			return
		}
	case FaultEvicted:
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"no such job"}`)) //nolint:errcheck
			return
		}
	case FaultSlow:
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	case FaultTamperTruncate, FaultTamperHeader:
		if isJobProfile(r) {
			rec := &recordingWriter{header: http.Header{}}
			p.next.ServeHTTP(rec, r)
			body := rec.body.Bytes()
			if fault == FaultTamperTruncate {
				// Cut at a line boundary when possible: the nastier
				// truncation, because the record stream still parses and
				// only the integrity envelope can notice.
				if i := bytes.LastIndexByte(body[:len(body)/2], '\n'); i > 0 {
					body = body[:i+1]
				} else {
					body = body[:len(body)/2]
				}
			} else {
				// Rewrite the snapshot header's degree: k=N -> k=N+7.
				if i := bytes.Index(body, []byte(`"k":`)); i >= 0 {
					body = append(append(append([]byte{}, body[:i]...), []byte(`"k":7`)...), body[i+4:]...)
				}
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
			return
		}
	}
	p.next.ServeHTTP(w, r)
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
