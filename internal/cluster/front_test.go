package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pathprof/internal/limits"
	"pathprof/internal/obs"
	"pathprof/internal/server"
)

// placeholder is a member URL nothing listens on: jobs whose source does not
// compile settle before any worker is asked.
const placeholder = "http://127.0.0.1:1"

// badSrc fails to compile.
const badSrc = "func main( {"

// call serves one request on h and returns the status and body.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestSubmitValidationMatchesDaemon sends every bad request of the daemon's
// TestSubmitValidation to a daemon and to a coordinator: both answer with
// the same status and the same error body. A request with two faults is
// refused for the first, the shard count.
func TestSubmitValidationMatchesDaemon(t *testing.T) {
	daemon := server.New(server.Config{})
	t.Cleanup(daemon.Close)
	coord := New(Config{Workers: []string{placeholder}})
	t.Cleanup(coord.Close)

	const src = "func main() { print(1); }"
	cases := []struct {
		name string
		req  server.JobRequest
	}{
		{"neither program", server.JobRequest{}},
		{"both programs", server.JobRequest{Benchmark: "181.mcf", Source: src}},
		{"unknown benchmark", server.JobRequest{Benchmark: "999.nope"}},
		{"too many shards", server.JobRequest{Source: src, Shards: 10_000}},
		{"negative shards", server.JobRequest{Source: src, Shards: -2}},
		{"bad k", server.JobRequest{Source: src, K: -5}},
		{"widened window", server.JobRequest{Source: src, Iters: 3}},
		{"narrowed window", server.JobRequest{Source: src, Iters: 1}},
		{"two faults", server.JobRequest{Source: src, Shards: 10_000, K: -5}},
	}
	type want struct {
		method, path string
		body         []byte
		code         int
	}
	var reqs []want
	for _, tc := range cases {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, want{"POST", "/v1/jobs", body, http.StatusBadRequest})
	}
	reqs = append(reqs,
		want{"POST", "/v1/jobs", []byte("{not json"), http.StatusBadRequest},
		want{"GET", "/v1/jobs/j-404", nil, http.StatusNotFound},
		want{"GET", "/v1/profiles/181.mcf", nil, http.StatusNotFound},
	)
	for _, rq := range reqs {
		dcode, dbody := call(daemon.Handler(), rq.method, rq.path, rq.body)
		ccode, cbody := call(coord.Handler(), rq.method, rq.path, rq.body)
		if dcode != rq.code || ccode != rq.code {
			t.Errorf("%s %s %s: daemon %d, coordinator %d, want %d", rq.method, rq.path, rq.body, dcode, ccode, rq.code)
		}
		if !bytes.Equal(dbody, cbody) {
			t.Errorf("%s %s %s: daemon answers %s, coordinator %s", rq.method, rq.path, rq.body, dbody, cbody)
		}
	}

	body, _ := json.Marshal(cases[len(cases)-1].req)
	_, raw := call(coord.Handler(), "POST", "/v1/jobs", body)
	var out map[string]string
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if first := limits.Shards(10_000, 64).Error(); out["error"] != first {
		t.Errorf("two-fault request refused with %q, want the first fault %q", out["error"], first)
	}
}

// TestCoordinatorBackpressureAndDrain is the daemon's TestBackpressureAndDrain
// at the coordinator: runners held off, the queue fills to capacity and the
// next submission bounces with 429 (logged as cjob.rejected); then the
// runners start, Drain refuses new work with 503 while every accepted job
// settles — here without any worker, since the source does not compile.
func TestCoordinatorBackpressureAndDrain(t *testing.T) {
	capture := obs.NewCapture(slog.LevelDebug)
	c := New(Config{Workers: []string{placeholder}, QueueCap: 3, Runners: 2, Logger: slog.New(capture)})
	t.Cleanup(c.Close)
	submit := func(seed uint64) (int, string) {
		t.Helper()
		body, _ := json.Marshal(server.JobRequest{Source: badSrc, Seed: seed})
		code, raw := call(c.Handler(), "POST", "/v1/jobs", body)
		var out map[string]string
		json.Unmarshal(raw, &out) //nolint:errcheck // error bodies are checked by status
		return code, out["id"]
	}

	var ids []string
	for i := 0; i < 3; i++ {
		code, id := submit(uint64(i))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, id)
	}
	if code, _ := submit(99); code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", code)
	}
	if code, _ := call(c.Handler(), "GET", "/v1/jobs/"+ids[0]+"/profile", nil); code != http.StatusConflict {
		t.Fatalf("profile of queued job: status %d, want 409", code)
	}

	c.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := submit(1); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	if code, raw := call(c.Handler(), "GET", "/healthz", nil); code != http.StatusOK || !strings.Contains(string(raw), "draining") {
		t.Fatalf("/healthz while draining: %d %q", code, raw)
	}
	for _, id := range ids {
		code, raw := call(c.Handler(), "GET", "/v1/jobs/"+id, nil)
		var st server.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil || code != http.StatusOK {
			t.Fatalf("job %s: status %d %s", id, code, raw)
		}
		if st.State != "failed" || len(st.Errors) != 1 || st.Errors[0].Shard != -1 {
			t.Fatalf("job %s settled %q with errors %+v, want failed with one job-level error", id, st.State, st.Errors)
		}
	}
	if m := c.metricsSnapshot(); m.JobsFailed != 3 || m.JobsRejected != 1 || m.QueueDepth != 0 || m.ChunksDispatched != 0 {
		t.Fatalf("metrics after drain: %+v", m)
	}
	rejected := 0
	for _, msg := range capture.Messages() {
		if msg == "cjob.rejected" {
			rejected++
		}
	}
	if rejected != 1 {
		t.Fatalf("cjob.rejected ×%d, want ×1 in %v", rejected, capture.Messages())
	}
}
