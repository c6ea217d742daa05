package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathprof/internal/cluster"
)

// sweepSpecs is the canonical differential workload: two benchmarks, mixed
// degrees, one non-classic iters width, and repeated (benchmark,k,iters)
// cells so the fleet fold actually folds.
func sweepSpecs() []JobSpec {
	return []JobSpec{
		{Benchmark: "181.mcf", Seed: 11, K: 1, Shards: 4},
		{Benchmark: "181.mcf", Seed: 311, K: 1, Shards: 3},
		{Benchmark: "008.espresso", Seed: 7, Shards: 2},
		{Benchmark: "181.mcf", Seed: 5, K: 1, Iters: 3, Shards: 2},
		{Benchmark: "008.espresso", Seed: 97, K: 2, Shards: 4},
	}
}

// cellID names one fleet cell as the coordinator tracks it.
type cellID struct {
	bench    string
	k, iters int
}

// clusterCells queries GET /v1/cluster and parses the tracked fleet cells
// out of their "bench|k=K|iters=I" placement keys, alongside each cell's
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
		if len(parts) != 3 {
			t.Fatalf("unparseable cell key %q", key)
		}
		k, err := strconv.Atoi(strings.TrimPrefix(parts[1], "k="))
		if err != nil {
			t.Fatalf("unparseable cell key %q: %v", key, err)
		}
		iters, err := strconv.Atoi(strings.TrimPrefix(parts[2], "iters="))
		if err != nil {
			t.Fatalf("unparseable cell key %q: %v", key, err)
		}
		out[cellID{bench: parts[0], k: k, iters: iters}] = owner
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
		got := clusterC.FleetProfile(cell.bench, cell.k, cell.iters)
		want := control.FleetProfile(cell.bench, cell.k, cell.iters)
		if !bytes.Equal(got, want) {
			t.Errorf("fleet cell %s k=%d iters=%d: cluster bytes differ from single-node control (%d vs %d bytes)",
				cell.bench, cell.k, cell.iters, len(got), len(want))
		}
		gotPGO := clusterC.PGOExport(cell.bench, cell.k, cell.iters)
		wantPGO := control.PGOExport(cell.bench, cell.k, cell.iters)
		if !bytes.Equal(gotPGO, wantPGO) {
			t.Errorf("pgo export %s k=%d iters=%d: cluster bytes differ from single-node control (%d vs %d bytes)",
				cell.bench, cell.k, cell.iters, len(gotPGO), len(wantPGO))
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

// TestClusterEvictedSubJobs: one of two workers answers 404 for every
// sub-job it accepted, as a worker does once its retention bound has
// evicted them. Each attempt on it is a failed attempt, the chunk re-runs
// the same seeds on the other worker, and the sweep completes with bytes
// identical to control.
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
	if !bytes.Equal(rig.Client.FleetProfile(victim.bench, victim.k, victim.iters),
		control.FleetProfile(victim.bench, victim.k, victim.iters)) {
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
