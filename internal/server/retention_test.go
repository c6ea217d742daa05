package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pathprof/internal/profile"
)

// tinySrc settles a job in well under a millisecond.
const tinySrc = `func main() { print(1); }`

// TestSettledJobRetention: once more than MaxSettledJobs jobs have
// settled, the oldest settled ids answer 404 "no such job" on every job
// route, while the newest MaxSettledJobs settled jobs and every in-flight
// job still resolve. The runners are not started: the test dequeues jobs
// itself, so it decides which stay in flight. The job table is the shared
// front-end's, the coordinator's too; the failed case settles every job
// the way a coordinator's job with an uncompilable source settles, before
// any worker is asked.
func TestSettledJobRetention(t *testing.T) {
	for _, tc := range []struct{ name, src, state string }{
		{"done", tinySrc, "done"},
		{"failed", "func main( {", "failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newDaemon(t, Config{}, false)
			submit := func() string {
				t.Helper()
				code, out := d.post(t, JobRequest{Source: tc.src, Seed: 1})
				if code != http.StatusAccepted {
					t.Fatalf("submit: status %d %v", code, out)
				}
				return out["id"]
			}
			state := func(id string) (int, string) {
				t.Helper()
				code, raw := d.get(t, "/v1/jobs/"+id)
				var st JobStatus
				json.Unmarshal(raw, &st) //nolint:errcheck // 404 bodies carry no status
				return code, st.State
			}

			// The oldest job is dequeued but never run: in flight throughout.
			held := submit()
			heldJob := <-d.s.queue
			const extra = 3
			var settled []string
			for i := 0; i < MaxSettledJobs+extra; i++ {
				settled = append(settled, submit())
				d.s.process(<-d.s.queue)
			}
			queued := submit()

			for _, id := range settled[:extra] {
				for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/profile", "/v1/jobs/" + id + "/trace"} {
					if code, raw := d.get(t, path); code != http.StatusNotFound || !strings.Contains(string(raw), "no such job") {
						t.Errorf("evicted %s: status %d %s, want 404 no such job", path, code, raw)
					}
				}
			}
			for _, id := range settled[extra:] {
				if code, st := state(id); code != http.StatusOK || st != tc.state {
					t.Fatalf("retained job %s: status %d state %q", id, code, st)
				}
			}
			for _, id := range []string{held, queued} {
				if code, st := state(id); code != http.StatusOK || st != "queued" {
					t.Errorf("in-flight job %s: status %d state %q", id, code, st)
				}
			}

			// Settling the two in-flight jobs evicts the next two oldest settled.
			d.s.process(heldJob)
			d.s.process(<-d.s.queue)
			for _, id := range settled[extra : extra+2] {
				if code, _ := state(id); code != http.StatusNotFound {
					t.Errorf("job %s after two more settled: status %d, want 404", id, code)
				}
			}
			for _, id := range append([]string{held, queued}, settled[extra+2]) {
				if code, st := state(id); code != http.StatusOK || st != tc.state {
					t.Errorf("job %s: status %d state %q, want 200 %s", id, code, st, tc.state)
				}
			}
		})
	}
}

// TestNestedStoreConfigRuns: a daemon configured for the nested layout
// runs its shards on nested stores, as its startup log says.
func TestNestedStoreConfigRuns(t *testing.T) {
	d := newDaemon(t, Config{Store: profile.StoreNested, Runners: 1}, true)
	req := JobRequest{Source: testSrc, Seed: 3, K: 1, Shards: 2}
	code, out := d.post(t, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d %v", code, out)
	}
	if st := d.await(t, out["id"]); st.State != "done" {
		t.Fatalf("job: %+v", st)
	}
	p, err := d.s.pipelineFor(req)
	if err != nil {
		t.Fatal(err)
	}
	if store := p.NewStore(); !isNested(store) {
		t.Fatalf("shards of a nested-store daemon run on %T", store)
	}
}

func isNested(s profile.CounterStore) bool {
	_, ok := s.(*profile.NestedStore)
	return ok
}
