package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathprof/internal/cluster"
	"pathprof/internal/obs"
	"pathprof/internal/server"
)

// sweepSpecs is the canonical differential workload: two benchmarks, mixed
// degrees, one job naming the two-iteration width explicitly, and repeated
// (benchmark,k) cells so the fleet fold actually folds.
func sweepSpecs() []JobSpec {
	return []JobSpec{
		{Benchmark: "181.mcf", Seed: 11, K: 1, Shards: 4},
		{Benchmark: "181.mcf", Seed: 311, K: 1, Shards: 3},
		{Benchmark: "008.espresso", Seed: 7, Shards: 2},
		{Benchmark: "181.mcf", Seed: 5, K: 1, Iters: 2, Shards: 2},
		{Benchmark: "008.espresso", Seed: 97, K: 2, Shards: 4},
	}
}

// cellID names one fleet cell as the coordinator tracks it.
type cellID struct {
	bench string
	k     int
}

// clusterCells queries GET /v1/cluster and parses the tracked fleet cells
// out of their "bench|k=K|iters=2" placement keys, alongside each cell's
// current owner.
func clusterCells(t *testing.T, c *Client) map[cellID]string {
	t.Helper()
	code, raw := c.Get("/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/cluster: status %d: %s", code, raw)
	}
	var info cluster.ClusterInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	out := map[cellID]string{}
	for key, owner := range info.Cells {
		parts := strings.Split(key, "|")
		if len(parts) != 3 || parts[2] != "iters=2" {
			t.Fatalf("unparseable cell key %q", key)
		}
		k, err := strconv.Atoi(strings.TrimPrefix(parts[1], "k="))
		if err != nil {
			t.Fatalf("unparseable cell key %q: %v", key, err)
		}
		out[cellID{bench: parts[0], k: k}] = owner
	}
	return out
}

// checkFleetDifferential compares every fleet cell the coordinator tracks
// byte-for-byte against the control daemon's cell — the CheckMerge invariant
// extended across the cluster boundary.
func checkFleetDifferential(t *testing.T, clusterC, control *Client) {
	t.Helper()
	cells := clusterCells(t, clusterC)
	if len(cells) == 0 {
		t.Fatal("coordinator tracks no fleet cells after the sweep")
	}
	for cell := range cells {
		got := clusterC.FleetProfile(cell.bench, cell.k)
		want := control.FleetProfile(cell.bench, cell.k)
		if !bytes.Equal(got, want) {
			t.Errorf("fleet cell %s k=%d: cluster bytes differ from single-node control (%d vs %d bytes)",
				cell.bench, cell.k, len(got), len(want))
		}
		gotPGO := clusterC.PGOExport(cell.bench, cell.k)
		wantPGO := control.PGOExport(cell.bench, cell.k)
		if !bytes.Equal(gotPGO, wantPGO) {
			t.Errorf("pgo export %s k=%d: cluster bytes differ from single-node control (%d vs %d bytes)",
				cell.bench, cell.k, len(gotPGO), len(wantPGO))
		}
	}
}

// checkJobDifferential compares per-job merged profiles position-by-position.
func checkJobDifferential(t *testing.T, specs []JobSpec, got, want [][]byte) {
	t.Helper()
	for i := range specs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("job %d (%s seed %d k %d shards %d): cluster profile differs from control",
				i, specs[i].Benchmark, specs[i].Seed, specs[i].K, specs[i].Shards)
		}
	}
}

// metricsOf fetches and decodes the coordinator's /metrics payload.
func metricsOf(t *testing.T, c *Client) cluster.ClusterMetrics {
	t.Helper()
	code, raw := c.Get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", code, raw)
	}
	var m cluster.ClusterMetrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClusterDifferentialSweep is the core acceptance check: for cluster
// sizes N in {1, 2, 4}, a full sweep through the coordinator produces
// per-job and fleet profiles byte-identical to the same sweep on one
// standalone pathprofd.
func TestClusterDifferentialSweep(t *testing.T) {
	specs := sweepSpecs()
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			rig := NewRig(t, n, Options{})
			control := NewControl(t)
			got := rig.Client.RunSweep(specs)
			want := control.RunSweep(specs)
			checkJobDifferential(t, specs, got, want)
			checkFleetDifferential(t, rig.Client, control)
			m := metricsOf(t, rig.Client)
			if m.JobsFailed != 0 || m.JobsCompleted != int64(len(specs)) {
				t.Errorf("metrics: %d completed, %d failed; want %d completed, 0 failed",
					m.JobsCompleted, m.JobsFailed, len(specs))
			}
		})
	}
}

// TestClusterWorkerCrashMidSweep kills one of three workers right after the
// sweep is accepted. Every job must still complete (chunks re-dispatch to
// survivors, re-running the same disjoint seeds), and both job and fleet
// profiles stay byte-identical to the single-node control — a crash may cost
// retries, never counter mass.
func TestClusterWorkerCrashMidSweep(t *testing.T) {
	rig := NewRig(t, 3, Options{})
	control := NewControl(t)
	specs := sweepSpecs()

	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = rig.Client.MustSubmit(spec.Request())
	}
	rig.Workers[0].Crash()

	got := make([][]byte, len(specs))
	for i, id := range ids {
		st := rig.Client.Await(id)
		if st.State != "done" {
			t.Fatalf("job %s (%s seed %d) ended %q after worker crash: %v",
				id, specs[i].Benchmark, specs[i].Seed, st.State, st.Errors)
		}
		got[i] = rig.Client.JobProfile(id)
	}
	want := control.RunSweep(specs)
	checkJobDifferential(t, specs, got, want)
	checkFleetDifferential(t, rig.Client, control)
	if m := metricsOf(t, rig.Client); m.JobsFailed != 0 {
		t.Errorf("metrics report %d failed jobs; want 0", m.JobsFailed)
	}
}

// TestCluster429Storm drowns one of two workers in injected backpressure for
// the opening of the sweep. Submissions bounce, the jittered retry path
// absorbs them, and once the storm lifts the differential invariant must
// hold exactly.
func TestCluster429Storm(t *testing.T) {
	rig := NewRig(t, 2, Options{})
	control := NewControl(t)
	rig.Workers[0].Proxy.Set(Fault429Storm)
	storm := time.AfterFunc(150*time.Millisecond, func() { rig.Workers[0].Proxy.Set(FaultNone) })
	defer storm.Stop()

	specs := sweepSpecs()
	got := rig.Client.RunSweep(specs)
	want := control.RunSweep(specs)
	checkJobDifferential(t, specs, got, want)
	checkFleetDifferential(t, rig.Client, control)
}

// TestClusterEvictedSubJobs: one of two workers runs every chunk it is sent,
// but each answer is lost on the way back (404 "no such job"). Each attempt
// on it is a failed attempt, the chunk re-runs the same seeds on the other
// worker, and the sweep completes with bytes identical to control.
func TestClusterEvictedSubJobs(t *testing.T) {
	rig := NewRig(t, 2, Options{})
	control := NewControl(t)
	rig.Workers[0].Proxy.Set(FaultEvicted)

	specs := sweepSpecs()
	got := rig.Client.RunSweep(specs)
	want := control.RunSweep(specs)
	checkJobDifferential(t, specs, got, want)
	checkFleetDifferential(t, rig.Client, control)
	if m := metricsOf(t, rig.Client); m.ChunkRetries == 0 {
		t.Error("no chunk retries: no attempt met the evicting worker")
	}
}

// TestClusterAttemptSpansNameTheirChunk: with one of two workers losing
// every answer, chunks retry, and every attempt span must name the chunk it
// served — its shard attribute equals the shard of one of the job's chunk
// spans — so a retried chunk's attempts can be told apart from its
// neighbours'.
func TestClusterAttemptSpansNameTheirChunk(t *testing.T) {
	rig := NewRig(t, 2, Options{})
	rig.Workers[0].Proxy.Set(FaultEvicted)
	specs := sweepSpecs()
	rig.Client.RunSweep(specs)

	retried := false
	// A fresh coordinator numbers its jobs c-1, c-2, ... in accept order.
	for i := range specs {
		id := fmt.Sprintf("c-%d", i+1)
		root := rig.Client.Trace(id)
		chunks := map[string]bool{}
		attempts := map[string]int{}
		for _, ch := range root.Children {
			switch ch.Name {
			case cluster.StageChunk:
				chunks[ch.Attrs["shard"]] = true
			case cluster.StageAttempt:
				attempts[ch.Attrs["shard"]]++
			}
		}
		for shard, n := range attempts {
			if !chunks[shard] {
				t.Errorf("job %s: %d attempt(s) name shard %q, which no chunk span has (chunks %v)",
					id, n, shard, chunks)
			}
			if n > 1 {
				retried = true
			}
		}
	}
	if !retried {
		t.Error("no chunk shows more than one attempt: no attempt met the answer-losing worker")
	}
}

// shape renders a span tree's names, nesting and attributes in a canonical
// order, leaving out timings and the worker and job_id attributes, so two
// traces of one job compare equal whatever the topology or scheduling.
func shape(n *obs.SpanNode) string {
	var attrs []string
	for k, v := range n.Attrs {
		if k != "worker" && k != "job_id" {
			attrs = append(attrs, k+"="+v)
		}
	}
	sort.Strings(attrs)
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = shape(c)
	}
	sort.Strings(kids)
	return n.Name + "{" + strings.Join(attrs, ",") + "}(" + strings.Join(kids, " ") + ")"
}

// TestClusterStitchedTraces: for N in {1, 2, 4}, a job's coordinator trace
// has the same span names and nesting, and every attempt holds the worker's
// span tree for its chunk — fan-out and merge, no estimate — re-based to lie
// inside the attempt.
func TestClusterStitchedTraces(t *testing.T) {
	spec := JobSpec{Benchmark: "181.mcf", Seed: 11, K: 1, Shards: 4}
	var want string
	for _, n := range []int{1, 2, 4} {
		rig := NewRig(t, n, Options{})
		st := rig.Client.Await(rig.Client.MustSubmit(spec.Request()))
		if st.State != "done" {
			t.Fatalf("workers=%d: job ended %q: %v", n, st.State, st.Errors)
		}
		root := rig.Client.Trace(st.ID)
		got := shape(root)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d: trace shape differs from workers=1:\n got %s\nwant %s", n, got, want)
		}

		attempts := 0
		for _, a := range root.Children {
			if a.Name != cluster.StageAttempt {
				continue
			}
			attempts++
			if len(a.Children) != 1 || a.Children[0].Name != server.StageJob {
				t.Fatalf("workers=%d: attempt holds %d children, want one grafted %q tree", n, len(a.Children), server.StageJob)
			}
			g := a.Children[0]
			if g.StartNs < a.StartNs || g.StartNs+g.DurationNs > a.StartNs+a.DurationNs {
				t.Errorf("workers=%d: grafted tree [%d,+%d] lies outside its attempt [%d,+%d]",
					n, g.StartNs, g.DurationNs, a.StartNs, a.DurationNs)
			}
			census := map[string]int{}
			for _, c := range g.Children {
				census[c.Name]++
				if c.Name == server.StageShard && (len(c.Children) != 1 || c.Children[0].Name != server.StageExecute) {
					t.Errorf("workers=%d: grafted shard span holds %+v, want one execute", n, c.Children)
				}
			}
			wantStages := map[string]int{server.StageQueue: 1, server.StageResolve: 1, server.StageShard: 1, server.StageMerge: 1}
			if fmt.Sprint(census) != fmt.Sprint(wantStages) {
				t.Errorf("workers=%d: grafted tree stages %v, want %v (no estimate)", n, census, wantStages)
			}
		}
		if attempts != spec.Shards {
			t.Errorf("workers=%d: %d attempts for %d one-shard chunks", n, attempts, spec.Shards)
		}
	}
}

// TestClusterSlowWorkerTimeout hangs one of two workers (every response
// delayed far past the attempt budget). Attempts on it burn one timeout each
// and re-dispatch to the healthy worker; the sweep completes with retries
// recorded and bytes identical to control.
func TestClusterSlowWorkerTimeout(t *testing.T) {
	// The attempt budget must be comfortably above a healthy chunk's
	// worst-case latency even under the race detector's slowdown, or honest
	// attempts time out too and exhaust the retry budget.
	rig := NewRig(t, 2, Options{
		AttemptTimeout: time.Second,
		MaxAttempts:    6,
		WorkerRunners:  4,
	})
	control := NewControl(t)
	// Far past the attempt budget, short enough that teardown is not stuck
	// waiting for parked fault-delay sleeps.
	rig.Workers[0].Proxy.SetSlow(2500 * time.Millisecond)

	specs := sweepSpecs()
	got := rig.Client.RunSweep(specs)
	want := control.RunSweep(specs)
	checkJobDifferential(t, specs, got, want)
	checkFleetDifferential(t, rig.Client, control)
	if m := metricsOf(t, rig.Client); m.ChunkRetries == 0 {
		t.Error("hung worker produced no chunk retries; the timeout path never fired")
	}
}

// TestClusterMembershipChurnMidSweep joins a third worker and removes a
// founding one while the sweep is in flight, then forces a deterministic
// handoff by removing a cell's current owner. Jobs, fleet bytes, and the
// membership metrics must all come out exact.
func TestClusterMembershipChurnMidSweep(t *testing.T) {
	rig := NewRig(t, 2, Options{})
	control := NewControl(t)
	specs := sweepSpecs()

	var got [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		got = rig.Client.RunSweep(specs)
	}()
	time.Sleep(20 * time.Millisecond)
	rig.AddWorker(t, Options{})
	time.Sleep(20 * time.Millisecond)
	rig.RemoveWorker(t, rig.Workers[0])
	<-done
	if t.Failed() {
		t.FailNow()
	}

	want := control.RunSweep(specs)
	checkJobDifferential(t, specs, got, want)
	checkFleetDifferential(t, rig.Client, control)

	// Deterministic handoff: remove a cell's current owner and the cell must
	// re-home to a survivor — and still serve control-identical bytes.
	var victim cellID
	var owner string
	for cell, on := range clusterCells(t, rig.Client) {
		if on != "" {
			victim, owner = cell, on
			break
		}
	}
	if owner == "" {
		t.Fatal("no fleet cell has a clean owner after the sweep")
	}
	for _, w := range rig.Workers {
		if w.URL == owner {
			rig.RemoveWorker(t, w)
		}
	}
	after := clusterCells(t, rig.Client)
	if newOwner := after[victim]; newOwner == owner {
		t.Errorf("cell %v still owned by removed worker %s", victim, owner)
	}
	if !bytes.Equal(rig.Client.FleetProfile(victim.bench, victim.k),
		control.FleetProfile(victim.bench, victim.k)) {
		t.Errorf("cell %v bytes diverged from control after owner handoff", victim)
	}

	m := metricsOf(t, rig.Client)
	if m.Joins != 1 || m.Leaves != 2 {
		t.Errorf("membership metrics: joins=%d leaves=%d; want 1 and 2", m.Joins, m.Leaves)
	}
	if m.Handoffs == 0 {
		t.Error("removing a cell owner recorded no handoffs")
	}
}

// TestClusterNoWorkers pins the empty-ring refusal: a coordinator with no
// members rejects submissions with 503 instead of accepting jobs it can
// never run.
func TestClusterNoWorkers(t *testing.T) {
	rig := NewRig(t, 0, Options{})
	code, _ := rig.Client.Submit(JobSpec{Benchmark: "181.mcf", Seed: 1, Shards: 1}.Request())
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit with empty ring: status %d, want 503", code)
	}
}

// TestClusterRefusesWidenedWindow: the coordinator holds the daemon's
// width boundary — a job naming a window other than two iterations gets
// 400 before it fans out, and so does a read or PGO export of a cell with
// ?iters= other than 2, while ?iters=2 and an absent field read the cell.
func TestClusterRefusesWidenedWindow(t *testing.T) {
	rig := NewRig(t, 1, Options{})
	for _, iters := range []int{3, 4, 1} {
		req := JobSpec{Benchmark: "181.mcf", Seed: 1, K: 1, Iters: iters, Shards: 1}.Request()
		if code, _ := rig.Client.Submit(req); code != http.StatusBadRequest {
			t.Errorf("job with iters %d: status %d, want 400", iters, code)
		}
	}
	rig.Client.RunSweep([]JobSpec{{Benchmark: "181.mcf", Seed: 1, K: 1, Shards: 1}})
	for _, path := range []string{"/v1/profiles/181.mcf?k=1&iters=3", "/v1/pgo/181.mcf?iters=3"} {
		if code, _ := rig.Client.Get(path); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
	for _, path := range []string{"/v1/profiles/181.mcf", "/v1/profiles/181.mcf?iters=2", "/v1/pgo/181.mcf?k=1&iters=2"} {
		if code, raw := rig.Client.Get(path); code != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", path, code, raw)
		}
	}
}
