package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"pathprof/internal/profile"
	"pathprof/internal/profstore"
)

// testStore opens a profile store in a temp dir. NoSync keeps the battery
// fast; the fsync path itself is the profstore package's own test surface.
func testStore(t *testing.T, dir string) *profstore.Store {
	t.Helper()
	st, err := profstore.Open(dir, profstore.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// runSweep submits the specs to the daemon and requires them all done.
func runSweep(t *testing.T, d *testDaemon, specs []JobRequest) {
	t.Helper()
	for i, spec := range specs {
		code, out := d.post(t, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", i, code)
		}
		if st := d.await(t, out["id"]); st.State != "done" {
			t.Fatalf("job %d: state %q, errors %v", i, st.State, st.Errors)
		}
	}
}

// fetchBytes GETs a path and returns the body, requiring 200.
func fetchBytes(t *testing.T, d *testDaemon, path string) []byte {
	t.Helper()
	code, raw := d.get(t, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, raw)
	}
	return raw
}

// TestRestartDurabilityMatrix is the acceptance battery: on every counter
// store layout and every supported window width, a daemon that persisted N
// accepted jobs and then "died" (abandoned without drain) must, after
// restart on the same data dir, serve /v1/profiles and /v1/pgo responses
// byte-identical to an uninterrupted in-memory control fed the same sweep.
func TestRestartDurabilityMatrix(t *testing.T) {
	for _, kind := range []profile.StoreKind{profile.StoreNested, profile.StoreArena} {
		for _, iters := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s-iters%d", kind, iters), func(t *testing.T) {
				specs := []JobRequest{
					{Benchmark: "008.espresso", Seed: 7, K: 1, Iters: iters, Shards: 2},
					{Benchmark: "008.espresso", Seed: 19, K: 1, Iters: iters, Shards: 1},
					{Benchmark: "008.espresso", Seed: 3, K: 0, Iters: iters, Shards: 1},
				}
				dir := t.TempDir()
				victim := newDaemon(t, Config{Runners: 2, Store: kind, Persist: testStore(t, dir)}, true)
				control := newDaemon(t, Config{Runners: 2, Store: kind}, true)
				runSweep(t, victim, specs)
				runSweep(t, control, specs)
				// The victim is abandoned mid-flight rather than drained:
				// every durability guarantee must come from the acked
				// appends already in the log, not from shutdown grace.
				revived := newDaemon(t, Config{Store: kind, Persist: testStore(t, dir)}, true)

				for _, q := range []string{
					fmt.Sprintf("/v1/profiles/008.espresso?k=1&iters=%d", iters),
					fmt.Sprintf("/v1/profiles/008.espresso?k=0&iters=%d", iters),
					fmt.Sprintf("/v1/pgo/008.espresso?k=1&iters=%d", iters),
					fmt.Sprintf("/v1/pgo/008.espresso?k=0&iters=%d", iters),
				} {
					want := fetchBytes(t, control, q)
					got := fetchBytes(t, revived, q)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: restarted daemon differs from uninterrupted control (%d vs %d bytes)",
							q, len(got), len(want))
					}
				}
			})
		}
	}
}

// TestRestartWithBlamedCorruption damages one log record between restarts
// and requires the revived daemon to blame it on /metrics while still
// serving the surviving mass — corruption is quarantined, never folded and
// never fatal.
func TestRestartWithBlamedCorruption(t *testing.T) {
	dir := t.TempDir()
	victim := newDaemon(t, Config{Runners: 1, Persist: testStore(t, dir)}, true)
	specs := []JobRequest{
		{Benchmark: "008.espresso", Seed: 7, K: 1, Shards: 1},
		{Benchmark: "008.espresso", Seed: 19, K: 1, Shards: 1},
	}
	runSweep(t, victim, specs)

	// Flip a byte inside the second record's payload.
	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-100] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := profstore.Open(dir, profstore.Config{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	corr := st.Corruptions()
	if len(corr) != 1 || corr[0].Record != 1 {
		t.Fatalf("corruptions = %v, want exactly record 1 blamed", corr)
	}
	revived := newDaemon(t, Config{Persist: st}, true)

	// The first job's mass must still serve; a control fed only job 1
	// must match it byte for byte.
	control := newDaemon(t, Config{Runners: 1}, true)
	runSweep(t, control, specs[:1])
	want := fetchBytes(t, control, "/v1/profiles/008.espresso?k=1&iters=2")
	got := fetchBytes(t, revived, "/v1/profiles/008.espresso?k=1&iters=2")
	if !bytes.Equal(got, want) {
		t.Fatal("surviving record's fold was poisoned by the corrupt one")
	}
	m := revived.metrics(t)
	if m.Store == nil || m.Store.CorruptRecords != 1 {
		t.Fatalf("store metrics %+v do not surface the blamed record", m.Store)
	}
}

// TestInstallDeletePersistAcrossRestart proves the coordinator-facing
// mutations journal too: an installed cell and a deleted cell keep their
// states across a restart.
func TestInstallDeletePersistAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	d := newDaemon(t, Config{Runners: 1, Persist: testStore(t, dir)}, true)
	runSweep(t, d, []JobRequest{
		{Benchmark: "008.espresso", Seed: 7, K: 1, Shards: 1},
		{Benchmark: "181.mcf", Seed: 3, K: 1, Shards: 1},
	})
	// Replace espresso's cell with mcf's snapshot via the install path,
	// then delete mcf's.
	snap := fetchBytes(t, d, "/v1/profiles/181.mcf?k=1&iters=2")
	req, err := http.NewRequest(http.MethodPut, d.ts.URL+"/v1/profiles/008.espresso", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("install: status %d", resp.StatusCode)
	}
	req, err = http.NewRequest(http.MethodDelete, d.ts.URL+"/v1/profiles/181.mcf?k=1&iters=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = d.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	revived := newDaemon(t, Config{Persist: testStore(t, dir)}, true)
	got := fetchBytes(t, revived, "/v1/profiles/008.espresso?k=1&iters=2")
	if !bytes.Equal(got, snap) {
		t.Fatal("installed cell did not replay as replacement")
	}
	if code, _ := revived.get(t, "/v1/profiles/181.mcf?k=1&iters=2"); code != http.StatusNotFound {
		t.Fatalf("deleted cell resurrected: status %d", code)
	}
}
