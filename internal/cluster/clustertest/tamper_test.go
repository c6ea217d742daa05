package clustertest

import (
	"bytes"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// blameLine is the structural contract every chunk failure must carry:
// "worker <url>: shard <index>: <cause>". The tamper tests pin it so a
// corrupted worker response can always be traced to the node that sent it.
var blameLine = regexp.MustCompile(`^worker http://[^\s:]+:\d+: shard \d+: `)

// runTamperedJob submits one sharded job against a single tampering worker
// with a one-attempt budget (so a clean retry cannot mask the corruption)
// and returns the failed status.
func runTamperedJob(t *testing.T, fault Fault) (*Rig, []string) {
	t.Helper()
	rig := NewRig(t, 1, Options{MaxAttempts: 1})
	rig.Workers[0].Proxy.Set(fault)
	id := rig.Client.MustSubmit(JobSpec{Benchmark: "181.mcf", Seed: 3, K: 1, Shards: 2}.Request())
	st := rig.Client.Await(id)
	if st.State != "done" && st.State != "failed" {
		t.Fatalf("job settled in unexpected state %q", st.State)
	}
	if st.State == "done" {
		t.Fatal("job with a tampering worker completed; corruption was silently absorbed")
	}
	if len(st.Errors) == 0 {
		t.Fatal("failed job carries no shard errors; corruption was silently dropped")
	}
	// Never silently dropped from the fold: a failed job must expose no
	// merged profile at all.
	if code, _ := rig.Client.Get("/v1/jobs/" + id + "/profile"); code != http.StatusConflict {
		t.Fatalf("failed job serves a profile (status %d); want 409", code)
	}
	msgs := make([]string, len(st.Errors))
	for i, se := range st.Errors {
		if se.Shard < 0 {
			t.Errorf("shard error %d has no shard index: %+v", i, se)
		}
		if !blameLine.MatchString(se.Error) {
			t.Errorf("shard error %d does not carry worker+shard blame: %q", i, se.Error)
		}
		msgs[i] = se.Error
	}
	return rig, msgs
}

// TestTamperTruncatedSnapshotDetected cuts every job-profile response at a
// record boundary — the nastiest truncation, because the remaining stream
// still parses and only the snapshot's records envelope can notice mass went
// missing. The job must fail with worker+shard blame naming the truncation.
func TestTamperTruncatedSnapshotDetected(t *testing.T) {
	_, msgs := runTamperedJob(t, FaultTamperTruncate)
	for _, msg := range msgs {
		if !strings.Contains(msg, "truncated") && !strings.Contains(msg, "snapshot header") {
			t.Errorf("blame line does not name the corruption: %q", msg)
		}
	}
}

// TestTamperCorruptHeaderDetected rewrites the snapshot header's degree, so
// the response decodes cleanly but belongs to the wrong profiling cell. The
// fold must refuse it as incompatible and blame the worker that sent it.
func TestTamperCorruptHeaderDetected(t *testing.T) {
	_, msgs := runTamperedJob(t, FaultTamperHeader)
	for _, msg := range msgs {
		if !strings.Contains(msg, "incompatible snapshots") {
			t.Errorf("blame line does not name the fold incompatibility: %q", msg)
		}
	}
}

// TestTamperBadRecordRetried plants a loop record for function 999 in one
// worker's chunk answers. The answer decodes and fits the job's cell, so
// only the check against the program refuses it: each such attempt fails,
// blamed on its worker, and the chunk is retried on the clean one. The job
// settles done, and neither its profile nor the fleet cell the coordinator
// serves carries the record.
func TestTamperBadRecordRetried(t *testing.T) {
	rig := NewRig(t, 2, Options{MaxAttempts: 3})
	rig.Workers[0].Proxy.Set(FaultTamperRecord)
	id := rig.Client.MustSubmit(JobSpec{Benchmark: "130.li", Seed: 3, K: 1, Shards: 4}.Request())
	if st := rig.Client.Await(id); st.State != "done" {
		t.Fatalf("job settled %q with errors %v; want done after retries", st.State, st.Errors)
	}
	for name, body := range map[string][]byte{
		"job profile": rig.Client.JobProfile(id),
		"fleet cell":  rig.Client.FleetProfile("130.li", 1),
	} {
		if bytes.Contains(body, []byte(`"func":999`)) {
			t.Errorf("%s carries the planted record for function 999", name)
		}
	}
	if m := metricsOf(t, rig.Client); m.ChunkRetries < 1 {
		t.Errorf("chunk_retries = %d; the tampering worker's answers were accepted", m.ChunkRetries)
	}
}

// TestTamperDoesNotPoisonFleet pins that a tampered job contributes nothing
// to the fleet: after the failed job, the coordinator tracks no cell for the
// benchmark.
func TestTamperDoesNotPoisonFleet(t *testing.T) {
	rig, _ := runTamperedJob(t, FaultTamperTruncate)
	if cells := clusterCells(t, rig.Client); len(cells) != 0 {
		t.Fatalf("failed job still created fleet cells: %v", cells)
	}
	if code, _ := rig.Client.Get("/v1/profiles/181.mcf"); code != http.StatusNotFound {
		t.Fatalf("fleet profile exists after an all-shards-failed job (status %d); want 404", code)
	}
}
