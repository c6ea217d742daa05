package clustertest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"pathprof/internal/obs"
	"pathprof/internal/server"
)

// Client drives one daemon (worker, coordinator, or control) over HTTP in a
// test, with t-fatal error handling so harness code stays linear.
type Client struct {
	t    *testing.T
	Base string
	cli  *http.Client
}

// NewClient wraps a base URL.
func NewClient(t *testing.T, base string) *Client {
	return &Client{t: t, Base: base, cli: http.DefaultClient}
}

// Submit POSTs a job and returns (status, id). 429s are NOT retried here —
// harness call sites decide whether backpressure is expected.
func (c *Client) Submit(req server.JobRequest) (int, string) {
	c.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.cli.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // error bodies may be empty
	return resp.StatusCode, out["id"]
}

// MustSubmit submits with bounded 429 retries and fails the test on any
// other non-202.
func (c *Client) MustSubmit(req server.JobRequest) string {
	c.t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		code, id := c.Submit(req)
		switch code {
		case http.StatusAccepted:
			return id
		case http.StatusTooManyRequests:
			time.Sleep(5 * time.Millisecond)
		default:
			c.t.Fatalf("submit: status %d", code)
		}
	}
	c.t.Fatal("submit: queue stayed full")
	return ""
}

// Await polls a job until it settles and returns its final status.
func (c *Client) Await(id string) server.JobStatus {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, raw := c.Get("/v1/jobs/" + id)
		if code != http.StatusOK {
			c.t.Fatalf("GET job %s: status %d: %s", id, code, raw)
		}
		var st server.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			c.t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("job %s did not settle in time", id)
	return server.JobStatus{}
}

// Get issues a GET and returns status + body.
func (c *Client) Get(path string) (int, []byte) {
	c.t.Helper()
	resp, err := c.cli.Get(c.Base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// JobProfile fetches a done job's merged snapshot bytes.
func (c *Client) JobProfile(id string) []byte {
	c.t.Helper()
	code, raw := c.Get("/v1/jobs/" + id + "/profile")
	if code != http.StatusOK {
		c.t.Fatalf("job %s profile: status %d: %s", id, code, raw)
	}
	return raw
}

// Trace fetches a job's span tree.
func (c *Client) Trace(id string) *obs.SpanNode {
	c.t.Helper()
	code, raw := c.Get("/v1/jobs/" + id + "/trace")
	if code != http.StatusOK {
		c.t.Fatalf("job %s trace: status %d: %s", id, code, raw)
	}
	var tr server.JobTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		c.t.Fatal(err)
	}
	return tr.Root
}

// FleetProfile fetches one fleet cell's snapshot bytes, naming the
// two-iteration window as the CI smoke and perfbench reads do.
func (c *Client) FleetProfile(bench string, k int) []byte {
	c.t.Helper()
	code, raw := c.Get(fmt.Sprintf("/v1/profiles/%s?k=%d&iters=2", bench, k))
	if code != http.StatusOK {
		c.t.Fatalf("fleet profile %s k=%d: status %d: %s", bench, k, code, raw)
	}
	return raw
}

// PGOExport fetches one fleet cell in pathprof's saved-run format — the
// bytes profile-guided layout consumes.
func (c *Client) PGOExport(bench string, k int) []byte {
	c.t.Helper()
	code, raw := c.Get(fmt.Sprintf("/v1/pgo/%s?k=%d&iters=2", bench, k))
	if code != http.StatusOK {
		c.t.Fatalf("pgo export %s k=%d: status %d: %s", bench, k, code, raw)
	}
	return raw
}

// JobSpec is one sweep entry; Iters is 0 or the two-iteration width 2 it
// stands for.
type JobSpec struct {
	Benchmark string
	Seed      uint64
	K         int
	Iters     int
	Shards    int
}

// Request converts the spec to the wire request.
func (s JobSpec) Request() server.JobRequest {
	return server.JobRequest{
		Benchmark: s.Benchmark, Seed: s.Seed, K: s.K, Iters: s.Iters, Shards: s.Shards,
	}
}

// RunSweep pushes every job through the daemon (submissions fan out
// concurrently, each awaited to completion) and fails the test if any job
// fails. It returns the per-job merged profile bytes in spec order.
func (c *Client) RunSweep(specs []JobSpec) [][]byte {
	c.t.Helper()
	out := make([][]byte, len(specs))
	done := make(chan int, len(specs))
	for i, spec := range specs {
		go func(i int, spec JobSpec) {
			defer func() { done <- i }()
			id := c.MustSubmit(spec.Request())
			st := c.Await(id)
			if st.State != "done" {
				c.t.Errorf("sweep job %d (%s seed %d) ended %q: %v",
					i, spec.Benchmark, spec.Seed, st.State, st.Errors)
				return
			}
			out[i] = c.JobProfile(id)
		}(i, spec)
	}
	for range specs {
		<-done
	}
	if c.t.Failed() {
		c.t.Fatalf("sweep through %s had failing jobs", c.Base)
	}
	return out
}
