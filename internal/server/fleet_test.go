package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"pathprof/internal/merge"
	"pathprof/internal/profile"
	"pathprof/internal/profstore"
)

// put PUTs body to path and returns the status and response body.
func (d *testDaemon) put(t *testing.T, path string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.cli.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msg bytes.Buffer
	msg.ReadFrom(resp.Body) //nolint:errcheck // the status carries the verdict
	return resp.StatusCode, msg.String()
}

func encodeSnap(t *testing.T, s *merge.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFleetInstallValidation: an install is checked against the
// benchmark's program. Unknown benchmarks, wrong function counts, degrees
// above the program's maximum, a snapshot naming a window width other than
// two iterations and records naming a function, loop, call site or path the
// program lacks answer 400 with the reason; a snapshot a job could have
// produced installs.
func TestFleetInstallValidation(t *testing.T) {
	d := newDaemon(t, Config{Runners: 1}, true)
	// with returns an empty 130.li snapshot holding one record. 130.li's
	// functions are evalAtom, apply, eval, readForm and main (4, the one
	// with loops and call sites).
	with := func(add func(c *profile.Counters)) *merge.Snapshot {
		s := merge.Empty(1, 5)
		add(s.Counters)
		return s
	}
	cases := []struct {
		name, bench string
		snap        *merge.Snapshot
		blame       string
	}{
		{"unknown benchmark", "999.none", merge.Empty(1, 5), "unknown benchmark"},
		{"function count", "130.li", merge.Empty(1, 2), "2 functions, the program has 5"},
		{"k above max", "130.li", merge.Empty(7, 5), "maximum degree 6"},
		{"k below min", "130.li", merge.Empty(-2, 5), "k must be in"},
		{"bl path", "130.li", with(func(c *profile.Counters) { c.BL[0][1<<40] = 1 }),
			"bl record names path 1099511627776 of"},
		{"loop func", "130.li", with(func(c *profile.Counters) { c.Loop[profile.LoopKey{Func: 999}] = 1 }),
			"loop record names function 999 of 5"},
		{"loop index", "130.li", with(func(c *profile.Counters) { c.Loop[profile.LoopKey{Loop: 99}] = 1 }),
			"loop record names loop 99 of"},
		{"loop base", "130.li", with(func(c *profile.Counters) { c.Loop[profile.LoopKey{Func: 4, Base: -1}] = 1 }),
			"loop record names path -1 of"},
		{"t1 caller", "130.li", with(func(c *profile.Counters) { c.TypeI[profile.TypeIKey{Caller: 999}] = 1 }),
			"t1 record names function 999 of 5"},
		{"t1 site", "130.li", with(func(c *profile.Counters) { c.TypeI[profile.TypeIKey{Site: 99}] = 1 }),
			"t1 record names call site 99 of"},
		{"t2 callee", "130.li", with(func(c *profile.Counters) { c.TypeII[profile.TypeIIKey{Callee: 5}] = 1 }),
			"t2 record names function 5 of 5"},
		{"t2 path", "130.li", with(func(c *profile.Counters) { c.TypeII[profile.TypeIIKey{Caller: 4, Path: 1 << 40}] = 1 }),
			"t2 record names path 1099511627776 of"},
		{"call site", "130.li", with(func(c *profile.Counters) { c.Calls[profile.CallKey{Site: -1}] = 1 }),
			"call record names call site -1 of"},
	}
	for _, tc := range cases {
		code, msg := d.put(t, "/v1/profiles/"+tc.bench, encodeSnap(t, tc.snap))
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.blame) {
			t.Errorf("%s: status %d %q, want 400 naming %q", tc.name, code, msg, tc.blame)
		}
	}
	wide := bytes.Replace(encodeSnap(t, merge.Empty(6, 5)), []byte(`"k":6,`), []byte(`"k":6,"iters":3,`), 1)
	if code, msg := d.put(t, "/v1/profiles/130.li", wide); code != http.StatusBadRequest || !strings.Contains(msg, "iters must be 2") {
		t.Errorf("widened snapshot: status %d %q, want 400 naming the width", code, msg)
	}
	if code, msg := d.put(t, "/v1/profiles/130.li", encodeSnap(t, merge.Empty(6, 5))); code != http.StatusNoContent {
		t.Fatalf("valid install: status %d %s", code, msg)
	}
	for _, q := range []string{"?k=6", "?k=6&iters=2"} {
		if code, _ := d.get(t, "/v1/profiles/130.li"+q); code != http.StatusOK {
			t.Fatalf("installed cell does not serve %s: status %d", q, code)
		}
	}
}

// TestJobFoldErrorFailsJob: a job whose snapshot cannot fold into its
// fleet cell fails with an error naming the cell, and the cell keeps what
// it held — the job's mass never vanishes behind a done state.
func TestJobFoldErrorFailsJob(t *testing.T) {
	d := newDaemon(t, Config{Runners: 1}, true)
	bad := merge.Empty(1, 2) // 130.li has 5 functions
	key := profstore.CellKey{Bench: "130.li", K: 1}
	d.s.fleetMu.Lock()
	d.s.fleet[key] = bad
	d.s.fleetMu.Unlock()
	before := d.s.metricsSnapshot().FleetFoldErrors
	code, out := d.post(t, JobRequest{Benchmark: "130.li", Seed: 1, K: 1})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	st := d.await(t, out["id"])
	if st.State != "failed" || len(st.Errors) == 0 || !strings.Contains(st.Errors[0].Error, "130.li|k=1|iters=2") {
		t.Fatalf("job state %q errors %+v, want failed naming cell 130.li|k=1|iters=2", st.State, st.Errors)
	}
	if got := d.s.metricsSnapshot().FleetFoldErrors; got != before+1 {
		t.Fatalf("fleet_fold_errors %d after the failed fold, want %d", got, before+1)
	}
	d.s.fleetMu.Lock()
	defer d.s.fleetMu.Unlock()
	if f := d.s.fleet[key]; f != bad || f.Mass() != 0 {
		t.Fatal("failed fold changed the cell")
	}
}
