package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pathprof/internal/server"
)

// TestCoordinatorSettledJobRetention: once more than
// server.MaxSettledJobs cluster jobs have settled, the oldest settled ids
// answer 404 "no such job" on every job route, while the newest
// MaxSettledJobs and every in-flight job still resolve. The runners are
// not started: the test dequeues jobs itself. Jobs carry a source that
// fails to compile, so they settle (as failed) without contacting the
// placeholder worker.
func TestCoordinatorSettledJobRetention(t *testing.T) {
	c := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	t.Cleanup(c.Close)
	do := func(method, path string, body []byte) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	submit := func() string {
		t.Helper()
		body, _ := json.Marshal(server.JobRequest{Source: "func main( {", Seed: 1})
		code, raw := do("POST", "/v1/jobs", body)
		var out map[string]string
		if err := json.Unmarshal(raw, &out); err != nil || code != http.StatusAccepted {
			t.Fatalf("submit: status %d %s", code, raw)
		}
		return out["id"]
	}
	state := func(id string) (int, string) {
		t.Helper()
		code, raw := do("GET", "/v1/jobs/"+id, nil)
		var st server.JobStatus
		json.Unmarshal(raw, &st) //nolint:errcheck // 404 bodies carry no status
		return code, st.State
	}

	held := submit()
	heldJob := <-c.queue
	const extra = 3
	var settled []string
	for i := 0; i < server.MaxSettledJobs+extra; i++ {
		settled = append(settled, submit())
		c.process(<-c.queue)
	}
	queued := submit()

	for _, id := range settled[:extra] {
		for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/profile", "/v1/jobs/" + id + "/trace"} {
			if code, raw := do("GET", path, nil); code != http.StatusNotFound || !strings.Contains(string(raw), "no such job") {
				t.Errorf("evicted %s: status %d %s, want 404 no such job", path, code, raw)
			}
		}
	}
	for _, id := range settled[extra:] {
		if code, st := state(id); code != http.StatusOK || st != "failed" {
			t.Fatalf("retained job %s: status %d state %q", id, code, st)
		}
	}
	for _, id := range []string{held, queued} {
		if code, st := state(id); code != http.StatusOK || st != "queued" {
			t.Errorf("in-flight job %s: status %d state %q", id, code, st)
		}
	}

	c.process(heldJob)
	c.process(<-c.queue)
	for _, id := range settled[extra : extra+2] {
		if code, _ := state(id); code != http.StatusNotFound {
			t.Errorf("job %s after two more settled: status %d, want 404", id, code)
		}
	}
	for _, id := range append([]string{held, queued}, settled[extra+2]) {
		if code, _ := state(id); code != http.StatusOK {
			t.Errorf("job %s: status %d, want 200", id, code)
		}
	}
}
