package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"pathprof/internal/merge"
	"pathprof/internal/obs"
)

// callChunk makes one POST /v1/chunks call and returns the status code and
// the raw answer. It is safe to call from any goroutine.
func (d *testDaemon) callChunk(req JobRequest) (int, []byte, error) {
	body, _ := json.Marshal(req)
	resp, err := d.cli.Post(d.ts.URL+"/v1/chunks", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// postChunk is callChunk for the test's own goroutine: any transport error
// fails the test.
func (d *testDaemon) postChunk(t *testing.T, req JobRequest) (int, []byte) {
	t.Helper()
	code, raw, err := d.callChunk(req)
	if err != nil {
		t.Fatal(err)
	}
	return code, raw
}

// splitAnswer decodes a 200 chunk answer into its status line and, when the
// chunk is done, its snapshot bytes.
func splitAnswer(t *testing.T, raw []byte) (ChunkStatus, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("answer has no status line: %q", raw)
	}
	var st ChunkStatus
	if err := json.Unmarshal(line, &st); err != nil {
		t.Fatalf("status line: %v", err)
	}
	rest, _ := io.ReadAll(br)
	return st, rest
}

// TestChunkAnswersLikeAJob: a chunk answers in one call with the same
// snapshot and steps a job of the same request produces, plus a span tree
// that stops at merge — no estimate, no persist.
func TestChunkAnswersLikeAJob(t *testing.T) {
	d := newDaemon(t, Config{}, true)
	req := JobRequest{Source: testSrc, Seed: 5, K: 1, Shards: 3}

	code, raw := d.postChunk(t, req)
	if code != http.StatusOK {
		t.Fatalf("chunk: status %d: %s", code, raw)
	}
	st, snapBytes := splitAnswer(t, raw)
	if st.State != "done" || len(st.Errors) != 0 {
		t.Fatalf("chunk status %+v", st)
	}
	if _, err := merge.Decode(bytes.NewReader(snapBytes)); err != nil {
		t.Fatalf("chunk snapshot does not decode: %v", err)
	}

	jcode, out := d.post(t, req)
	if jcode != http.StatusAccepted {
		t.Fatalf("job submit: status %d", jcode)
	}
	jst := d.await(t, out["id"])
	if jst.State != "done" {
		t.Fatalf("job state %q: %v", jst.State, jst.Errors)
	}
	if st.Steps != jst.Result.Steps {
		t.Errorf("chunk steps %d, job steps %d", st.Steps, jst.Result.Steps)
	}
	if _, profile := d.get(t, "/v1/jobs/"+out["id"]+"/profile"); !bytes.Equal(snapBytes, profile) {
		t.Error("chunk snapshot differs from the job profile of the same request")
	}

	census := map[string]int{}
	obs.Walk(st.Trace, func(n *obs.SpanNode, _ int) {
		census[n.Name]++
		if n.Open {
			t.Errorf("span %s still open in a settled chunk's tree", n.Name)
		}
	})
	want := map[string]int{StageJob: 1, StageQueue: 1, StageResolve: 1, StageShard: 3, StageExecute: 3, StageMerge: 1}
	for stage, n := range want {
		if census[stage] != n {
			t.Errorf("chunk trace: %s ×%d, want ×%d (full: %v)", stage, census[stage], n, census)
		}
	}
	if len(census) != len(want) {
		t.Errorf("chunk trace has stages beyond fan-out and merge: %v", census)
	}
}

// TestChunksCountedButNeverKept: chunks count as accepted, completed and
// failed jobs on /metrics, but never enter the job table, so they can
// neither be read back nor evict a kept job.
func TestChunksCountedButNeverKept(t *testing.T) {
	d := newDaemon(t, Config{MaxSteps: 10_000}, true)
	for i := 0; i < 3; i++ {
		if code, raw := d.postChunk(t, JobRequest{Source: testSrc, Seed: uint64(i), Shards: 2}); code != http.StatusOK {
			t.Fatalf("chunk %d: status %d: %s", i, code, raw)
		}
	}
	code, raw := d.postChunk(t, JobRequest{Source: spinSrc, Shards: 1})
	if code != http.StatusOK {
		t.Fatalf("failing chunk: status %d: %s", code, raw)
	}
	st, rest := splitAnswer(t, raw)
	if st.State != "failed" || len(st.Errors) != 1 || st.Errors[0].Shard != 0 || len(rest) != 0 {
		t.Fatalf("failing chunk answer: %+v, %d snapshot bytes", st, len(rest))
	}

	m := d.metrics(t)
	if m.JobsAccepted != 4 || m.JobsCompleted != 3 || m.JobsFailed != 1 {
		t.Errorf("metrics: accepted %d completed %d failed %d, want 4, 3, 1",
			m.JobsAccepted, m.JobsCompleted, m.JobsFailed)
	}
	if m.EstimateMs.Count != 0 {
		t.Errorf("chunks were estimated %d times", m.EstimateMs.Count)
	}
	d.s.jobsMu.RLock()
	kept, settled := len(d.s.jobs), len(d.s.settled.ids)
	d.s.jobsMu.RUnlock()
	if kept != 0 || settled != 0 {
		t.Errorf("job table holds %d jobs and %d settled ids after chunks only", kept, settled)
	}
}

// TestChunkBackpressureAndDrain: a chunk takes a queue slot like a job, so a
// full queue answers 429 and a draining server 503; Drain waits for a
// queued chunk, which still answers once it runs.
func TestChunkBackpressureAndDrain(t *testing.T) {
	d := newDaemon(t, Config{QueueCap: 1}, false)
	answer := make(chan []byte, 1)
	go func() {
		code, raw, err := d.callChunk(JobRequest{Source: testSrc, Shards: 1})
		if err != nil || code != http.StatusOK {
			t.Errorf("queued chunk: status %d, error %v: %s", code, err, raw)
		}
		answer <- raw
	}()
	waitQueued(t, d, 1)
	if code, _ := d.postChunk(t, JobRequest{Source: testSrc, Shards: 1}); code != http.StatusTooManyRequests {
		t.Fatalf("chunk on a full queue: status %d, want 429", code)
	}

	drained := make(chan error, 1)
	go func() { drained <- d.s.Drain(context.Background()) }()
	for {
		if code, _ := d.postChunk(t, JobRequest{Source: testSrc, Shards: 1}); code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a chunk still queued", err)
	case <-time.After(20 * time.Millisecond):
	}
	d.s.process(<-d.s.queue)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if st, _ := splitAnswer(t, <-answer); st.State != "done" {
		t.Fatalf("drained chunk answered %+v", st)
	}
}

// TestChunkAbandonedByClose: a chunk still queued when Close stops the
// runners answers 503 instead of blocking its caller forever.
func TestChunkAbandonedByClose(t *testing.T) {
	d := newDaemon(t, Config{}, false)
	code := make(chan int, 1)
	go func() {
		c, _, err := d.callChunk(JobRequest{Source: testSrc, Shards: 1})
		if err != nil {
			t.Error(err)
		}
		code <- c
	}()
	waitQueued(t, d, 1)
	d.s.Close()
	select {
	case c := <-code:
		if c != http.StatusServiceUnavailable {
			t.Fatalf("abandoned chunk: status %d, want 503", c)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned chunk never answered")
	}
}

// waitQueued waits until the daemon's queue holds n entries.
func waitQueued(t *testing.T, d *testDaemon, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(d.s.queue) < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d entries", n)
		}
		time.Sleep(time.Millisecond)
	}
}
