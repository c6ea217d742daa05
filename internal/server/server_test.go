package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/merge"
	"pathprof/internal/pgo"
	"pathprof/internal/pipeline"
	"pathprof/internal/workload"
)

// testSrc profiles quickly and touches every counter family.
const testSrc = `
func helper(x) {
	if (x % 2 == 0) { return x + 1; }
	return x - 1;
}
func main() {
	var s = 0;
	for (var i = 0; i < 40; i = i + 1) {
		if (rand(2) == 0) { s = s + helper(i); } else { s = s - 1; }
	}
	print(s);
}
`

// spinSrc exceeds any small step limit.
const spinSrc = `
func main() {
	var s = 0;
	for (var i = 0; i < 100000000; i = i + 1) { s = s + 1; }
	print(s);
}
`

type testDaemon struct {
	s   *Server
	ts  *httptest.Server
	cli *http.Client
}

// newDaemon boots a Server (Start unless started=false) behind an httptest
// listener and tears both down at test end.
func newDaemon(t *testing.T, cfg Config, started bool) *testDaemon {
	t.Helper()
	s := New(cfg)
	if started {
		s.Start()
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testDaemon{s: s, ts: ts, cli: ts.Client()}
}

func (d *testDaemon) post(t *testing.T, req JobRequest) (int, map[string]string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := d.cli.Post(d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // error bodies may be empty
	return resp.StatusCode, out
}

func (d *testDaemon) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := d.cli.Get(d.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// del sends DELETE to path and returns the status.
func (d *testDaemon) del(t *testing.T, path string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, d.ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// await polls the job until it leaves the queued/running states.
func (d *testDaemon) await(t *testing.T, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := d.get(t, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, code, raw)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle in time", id)
	return JobStatus{}
}

func (d *testDaemon) metrics(t *testing.T) MetricsSnapshot {
	t.Helper()
	code, raw := d.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestJobLifecycle(t *testing.T) {
	d := newDaemon(t, Config{Runners: 2}, true)

	if code, raw := d.get(t, "/healthz"); code != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("/healthz: %d %q", code, raw)
	}

	code, out := d.post(t, JobRequest{Source: testSrc, Seed: 7, K: 1, Shards: 3})
	if code != http.StatusAccepted || out["id"] == "" {
		t.Fatalf("submit: status %d, body %v", code, out)
	}
	st := d.await(t, out["id"])
	if st.State != "done" {
		t.Fatalf("job state %q, errors %v", st.State, st.Errors)
	}
	if st.Result == nil {
		t.Fatal("done job has no result")
	}
	if st.Result.K != 1 || st.Result.Steps <= 0 || st.Result.Mass == 0 {
		t.Fatalf("implausible result: %+v", st.Result)
	}
	if st.ShardsDone != 3 {
		t.Fatalf("shardsDone = %d, want 3", st.ShardsDone)
	}

	// The served profile decodes as a snapshot whose mass matches the result.
	pcode, raw := d.get(t, "/v1/jobs/"+out["id"]+"/profile")
	if pcode != http.StatusOK {
		t.Fatalf("profile: status %d", pcode)
	}
	snap, err := merge.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if snap.K != 1 || snap.Mass() != st.Result.Mass {
		t.Fatalf("served snapshot (k=%d, mass=%d) disagrees with result (k=%d, mass=%d)",
			snap.K, snap.Mass(), st.Result.K, st.Result.Mass)
	}

	m := d.metrics(t)
	if m.JobsCompleted != 1 || m.ShardsExecuted != 3 || m.Merges != 1 {
		t.Fatalf("metrics after one 3-shard job: %+v", m)
	}
}

func TestSubmitValidation(t *testing.T) {
	d := newDaemon(t, Config{}, true)
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"neither program", JobRequest{}},
		{"both programs", JobRequest{Benchmark: "181.mcf", Source: testSrc}},
		{"unknown benchmark", JobRequest{Benchmark: "999.nope"}},
		{"too many shards", JobRequest{Source: testSrc, Shards: 10_000}},
		{"negative shards", JobRequest{Source: testSrc, Shards: -2}},
		{"bad k", JobRequest{Source: testSrc, K: -5}},
		{"widened window", JobRequest{Source: testSrc, Iters: 3}},
		{"narrowed window", JobRequest{Source: testSrc, Iters: 1}},
	}
	for _, tc := range cases {
		if code, _ := d.post(t, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	resp, err := d.cli.Post(d.ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if code, _ := d.get(t, "/v1/jobs/j-404"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
	if code, _ := d.get(t, "/v1/profiles/181.mcf"); code != http.StatusNotFound {
		t.Fatalf("fleet profile before any job: status %d, want 404", code)
	}
}

// TestBackpressureAndDrain exercises the bounded queue end to end: runners
// held off, the queue fills to capacity, the next submission bounces with
// 429; then the runners start, Drain refuses new work with 503 while every
// already-accepted job completes.
func TestBackpressureAndDrain(t *testing.T) {
	d := newDaemon(t, Config{QueueCap: 3, Runners: 2}, false) // not started: nothing dequeues

	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		code, out := d.post(t, JobRequest{Source: testSrc, Seed: uint64(i), K: 0})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		ids = append(ids, out["id"])
	}
	if code, _ := d.post(t, JobRequest{Source: testSrc, Seed: 99}); code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", code)
	}
	// A queued job has no profile yet.
	if code, _ := d.get(t, "/v1/jobs/"+ids[0]+"/profile"); code != http.StatusConflict {
		t.Fatalf("profile of queued job: status %d, want 409", code)
	}

	d.s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if code, _ := d.post(t, JobRequest{Source: testSrc, Seed: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}
	if code, raw := d.get(t, "/healthz"); code != http.StatusOK || !strings.Contains(string(raw), "draining") {
		t.Fatalf("/healthz while draining: %d %q", code, raw)
	}
	for _, id := range ids {
		if st := d.await(t, id); st.State != "done" {
			t.Fatalf("job %s ended %q after drain, errors %v", id, st.State, st.Errors)
		}
	}
	m := d.metrics(t)
	if m.JobsCompleted != 3 || m.JobsRejected != 1 || m.QueueDepth != 0 {
		t.Fatalf("metrics after drain: %+v", m)
	}
}

// TestShardErrorCarriesIndex fails shards against the VM step limit and
// requires the job status to blame each shard by index, structurally and in
// the wrapped error text (satellite: step-limit errors carry shard index).
func TestShardErrorCarriesIndex(t *testing.T) {
	d := newDaemon(t, Config{MaxSteps: 500}, true)
	code, out := d.post(t, JobRequest{Source: spinSrc, Seed: 1, K: 0, Shards: 2})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st := d.await(t, out["id"])
	if st.State != "failed" {
		t.Fatalf("job state %q, want failed", st.State)
	}
	if len(st.Errors) != 2 {
		t.Fatalf("got %d shard errors, want 2: %v", len(st.Errors), st.Errors)
	}
	seen := map[int]bool{}
	for _, se := range st.Errors {
		seen[se.Shard] = true
		if want := fmt.Sprintf("shard %d:", se.Shard); !strings.Contains(se.Error, want) {
			t.Fatalf("shard error %q does not carry its index %q", se.Error, want)
		}
		if !strings.Contains(se.Error, "step limit") {
			t.Fatalf("shard error %q does not surface the step-limit cause", se.Error)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("shard indices missing from errors: %v", st.Errors)
	}
	m := d.metrics(t)
	if m.JobsFailed != 1 || m.ShardErrors != 2 {
		t.Fatalf("metrics after failed job: %+v", m)
	}
}

// TestFleetProfile checks the fleet fold's defining identity: two 1-shard
// jobs at seeds s and s+1 must leave the same fleet profile, byte for byte,
// as one 2-shard job at seed s serves for itself — shard i of a job runs at
// Seed+i, so both decompositions profile the same set of runs.
func TestFleetProfile(t *testing.T) {
	const bench = "181.mcf"
	two := newDaemon(t, Config{Runners: 2}, true)
	for seed := uint64(1); seed <= 2; seed++ {
		code, out := two.post(t, JobRequest{Benchmark: bench, Seed: seed, K: 1})
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d", seed, code)
		}
		if st := two.await(t, out["id"]); st.State != "done" {
			t.Fatalf("seed-%d job ended %q: %v", seed, st.State, st.Errors)
		}
	}
	code, fleetRaw := two.get(t, "/v1/profiles/"+bench)
	if code != http.StatusOK {
		t.Fatalf("fleet profile: status %d: %s", code, fleetRaw)
	}

	one := newDaemon(t, Config{Runners: 2}, true)
	scode, out := one.post(t, JobRequest{Benchmark: bench, Seed: 1, K: 1, Shards: 2})
	if scode != http.StatusAccepted {
		t.Fatalf("submit sharded: status %d", scode)
	}
	if st := one.await(t, out["id"]); st.State != "done" {
		t.Fatalf("sharded job ended %q: %v", st.State, st.Errors)
	}
	pcode, jobRaw := one.get(t, "/v1/jobs/"+out["id"]+"/profile")
	if pcode != http.StatusOK {
		t.Fatalf("job profile: status %d", pcode)
	}

	if !bytes.Equal(fleetRaw, jobRaw) {
		t.Fatal("fleet fold of two 1-shard jobs differs from one 2-shard job's merged profile")
	}

	// Degree ambiguity: a second degree makes the bare GET a 409 until ?k=
	// picks one.
	code, out = two.post(t, JobRequest{Benchmark: bench, Seed: 3, K: 0})
	if code != http.StatusAccepted {
		t.Fatalf("submit k=0: status %d", code)
	}
	if st := two.await(t, out["id"]); st.State != "done" {
		t.Fatalf("k=0 job ended %q: %v", st.State, st.Errors)
	}
	if code, _ := two.get(t, "/v1/profiles/"+bench); code != http.StatusConflict {
		t.Fatalf("ambiguous fleet profile: status %d, want 409", code)
	}
	if code, raw := two.get(t, "/v1/profiles/"+bench+"?k=1"); code != http.StatusOK || !bytes.Equal(raw, fleetRaw) {
		t.Fatalf("?k=1 fleet profile: status %d, stable %v", code, bytes.Equal(raw, fleetRaw))
	}
	if code, _ := two.get(t, "/v1/profiles/"+bench+"?k=7"); code != http.StatusNotFound {
		t.Fatalf("missing-degree fleet profile: status %d, want 404", code)
	}

	// The window width: ?iters=2 names the one width cells have, any
	// other is refused — on reads and on deletes, which then drop nothing.
	if code, raw := two.get(t, "/v1/profiles/"+bench+"?k=1&iters=2"); code != http.StatusOK || !bytes.Equal(raw, fleetRaw) {
		t.Fatalf("?k=1&iters=2 fleet profile: status %d, stable %v", code, bytes.Equal(raw, fleetRaw))
	}
	for _, q := range []string{"?k=1&iters=3", "?iters=4", "?k=1&iters=x"} {
		if code, _ := two.get(t, "/v1/profiles/"+bench+q); code != http.StatusBadRequest {
			t.Errorf("fleet profile %s: status %d, want 400", q, code)
		}
		if code := two.del(t, "/v1/profiles/"+bench+q); code != http.StatusBadRequest {
			t.Errorf("fleet delete %s: status %d, want 400", q, code)
		}
	}
	if code, raw := two.get(t, "/v1/profiles/"+bench+"?k=1"); code != http.StatusOK || !bytes.Equal(raw, fleetRaw) {
		t.Fatalf("refused deletes changed the cell: status %d", code)
	}
}

// TestPGOExport closes the fleet half of the PGO loop over the wire: a
// profiled benchmark's fleet cell must export in pathprof's saved-run
// format, and those bytes must derive a layout plan that actually moves
// code. Cell addressing errors mirror GET /v1/profiles.
func TestPGOExport(t *testing.T) {
	const bench = "300.twolf"
	d := newDaemon(t, Config{Runners: 2}, true)
	code, out := d.post(t, JobRequest{Benchmark: bench, Seed: 300, K: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st := d.await(t, out["id"]); st.State != "done" {
		t.Fatalf("job ended %q: %v", st.State, st.Errors)
	}

	code, raw := d.get(t, "/v1/pgo/"+bench)
	if code != http.StatusOK {
		t.Fatalf("pgo export: status %d: %s", code, raw)
	}
	run, err := core.LoadRun(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("pgo export is not a loadable saved run: %v", err)
	}
	if run.K != 1 {
		t.Fatalf("exported profile degree k=%d, want 1", run.K)
	}
	s, err := core.Open(workload.ByName(bench).Source)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pgo.Derive(s.Info, &pgo.Profile{K: run.K, Counters: run.Counters})
	if err != nil {
		t.Fatalf("deriving a layout from the export: %v", err)
	}
	if plan.Reordered() == 0 {
		t.Fatal("fleet-trained plan reordered no functions")
	}

	if code, _ := d.get(t, "/v1/pgo/no-such-bench"); code != http.StatusNotFound {
		t.Fatalf("missing benchmark: status %d, want 404", code)
	}
	if code, _ := d.get(t, "/v1/pgo/"+bench+"?k=7"); code != http.StatusNotFound {
		t.Fatalf("missing degree: status %d, want 404", code)
	}
	if code, _ := d.get(t, "/v1/pgo/"+bench+"?k=bogus"); code != http.StatusBadRequest {
		t.Fatalf("malformed degree: status %d, want 400", code)
	}
	if code, _ := d.get(t, "/v1/pgo/"+bench+"?iters=3"); code != http.StatusBadRequest {
		t.Fatalf("widened window: status %d, want 400", code)
	}
	if code, again := d.get(t, "/v1/pgo/"+bench+"?k=1&iters=2"); code != http.StatusOK || !bytes.Equal(again, raw) {
		t.Fatalf("?k=1&iters=2 export: status %d, stable %v", code, bytes.Equal(again, raw))
	}
}

// TestSharedPoolBoundsShards pins the pool-discipline contract: a job's
// shard fan-out draws leaf slots from the configured pool, so even a 1-slot
// pool finishes a multi-shard job (no coordinator holds a slot while
// waiting).
func TestSharedPoolBoundsShards(t *testing.T) {
	d := newDaemon(t, Config{Pool: pipeline.NewPool(1)}, true)
	code, out := d.post(t, JobRequest{Source: testSrc, Seed: 3, K: 1, Shards: 4})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st := d.await(t, out["id"]); st.State != "done" {
		t.Fatalf("job on 1-slot pool ended %q: %v", st.State, st.Errors)
	}
}

// TestDrainConcurrentSubmits races Drain against a herd of live submitters
// (regression: the drain gate and the queue used to be checked in a way that
// could strand an accepted job). The contract: every job that got a 202
// completes, submits that arrive after the gate flips get 503, and nothing
// is lost in between.
func TestDrainConcurrentSubmits(t *testing.T) {
	d := newDaemon(t, Config{QueueCap: 64, Runners: 4}, true)

	const submitters = 8
	var mu sync.Mutex
	var accepted []string
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, out := d.post(t, JobRequest{Source: testSrc, Seed: uint64(w*1000 + i), K: 0})
				switch code {
				case http.StatusAccepted:
					mu.Lock()
					accepted = append(accepted, out["id"])
					mu.Unlock()
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Refused, not lost: back off a touch and keep offering.
					time.Sleep(time.Millisecond)
				default:
					t.Errorf("submitter %d: unexpected status %d", w, code)
					return
				}
			}
		}(w)
	}

	time.Sleep(30 * time.Millisecond) // let the herd get jobs in flight
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.s.Drain(ctx); err != nil {
		t.Fatalf("drain under concurrent submits: %v", err)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(accepted) == 0 {
		t.Fatal("no job was accepted before the drain gate flipped")
	}

	// Drain returned, so every accepted job must already be settled and done.
	for _, id := range accepted {
		if st := d.await(t, id); st.State != "done" {
			t.Errorf("accepted job %s ended %q after drain: %v", id, st.State, st.Errors)
		}
	}
	// The gate stays closed for late arrivals.
	if code, _ := d.post(t, JobRequest{Source: testSrc, Seed: 424242}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", code)
	}
	if m := d.metrics(t); m.JobsCompleted != int64(len(accepted)) || m.QueueDepth != 0 {
		t.Fatalf("after drain: completed=%d queue=%d, want %d accepted jobs completed and an empty queue",
			m.JobsCompleted, m.QueueDepth, len(accepted))
	}
}
