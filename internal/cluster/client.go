package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/server"
)

// ShardError blames a failed shard chunk on exactly the worker and shard
// range that produced it. The error text is the structural contract the
// fault-injection tests pin: "worker %s: shard %d: <cause>", with the cause
// reachable through errors.Is/As via Unwrap — a truncated snapshot, an
// incompatible fold, a timeout, or an exhausted retry budget all surface
// here instead of being dropped from the fold.
type ShardError struct {
	// Worker is the base URL of the worker the final attempt ran on.
	Worker string
	// Shard is the first shard index of the failed chunk (job-relative).
	Shard int
	// Err is the underlying cause.
	Err error
}

// Error formats the structural blame line.
func (e *ShardError) Error() string {
	return fmt.Sprintf("worker %s: shard %d: %v", e.Worker, e.Shard, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// ErrAttemptsExhausted reports a chunk that failed on every allowed dispatch
// attempt; the last attempt's cause is wrapped alongside it.
var ErrAttemptsExhausted = errors.New("cluster: dispatch attempts exhausted")

// workerClient is the coordinator's HTTP client for one worker daemon. It
// carries the per-worker load gauge least-loaded dispatch reads and its own
// jitter stream for 429 retries, so concurrent retriers on different
// workers do not fire in lockstep.
type workerClient struct {
	base    string
	cli     *http.Client
	backoff *server.Backoff

	mu       sync.Mutex
	inFlight int
}

func newWorkerClient(base string, cli *http.Client, seed int64) *workerClient {
	if cli == nil {
		cli = http.DefaultClient
	}
	return &workerClient{base: base, cli: cli, backoff: server.NewBackoff(seed)}
}

// load returns the worker's current in-flight chunk count.
func (w *workerClient) load() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inFlight
}

func (w *workerClient) addLoad(d int) {
	w.mu.Lock()
	w.inFlight += d
	w.mu.Unlock()
}

// maxAnswerBytes bounds how much of a chunk answer the coordinator reads,
// as a worker bounds the body of a fleet install.
const maxAnswerBytes = 64 << 20

// chunk runs one sub-job on the worker with a single blocking
// POST /v1/chunks call, retrying 429 backpressure bounces with jittered
// backoff until accepted or ctx expires. The worker's span tree from the
// answer is grafted under span. A failed sub-job is an error carrying the
// worker-side shard errors, so the blame chain reads coordinator chunk ->
// worker shard. Any other status is a lost answer: an immediate error, which
// the dispatcher above may retry on another worker.
func (w *workerClient) chunk(ctx context.Context, req server.JobRequest, span *obs.Span) (*merge.Snapshot, int64, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	for attempt := 0; ; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/chunks", bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := w.cli.Do(hreq)
		if err != nil {
			return nil, 0, err
		}
		arrived := time.Now()
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes+1))
		resp.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("chunk: reading answer: %w", err)
		}
		if len(raw) > maxAnswerBytes {
			return nil, 0, fmt.Errorf("chunk: answer exceeds %d bytes", maxAnswerBytes)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return decodeAnswer(raw, arrived, span)
		case http.StatusTooManyRequests:
			if err := w.backoff.Sleep(ctx, attempt, 2*time.Millisecond, 100*time.Millisecond); err != nil {
				return nil, 0, fmt.Errorf("chunk: %w after %d backpressure bounces", err, attempt+1)
			}
		default:
			var out map[string]string
			json.Unmarshal(raw, &out) //nolint:errcheck // error bodies may be empty
			return nil, 0, fmt.Errorf("chunk: status %d: %s", resp.StatusCode, out["error"])
		}
	}
}

// decodeAnswer splits a chunk answer into its status line and snapshot,
// grafting the status line's span tree under span. A truncated or corrupted
// snapshot fails the decode here — the dispatcher wraps the error with
// worker+shard blame; nothing is silently skipped.
func decodeAnswer(raw []byte, arrived time.Time, span *obs.Span) (*merge.Snapshot, int64, error) {
	line, rest, _ := bytes.Cut(raw, []byte{'\n'})
	var st server.ChunkStatus
	if err := json.Unmarshal(line, &st); err != nil {
		return nil, 0, fmt.Errorf("chunk: status line: %w", err)
	}
	if st.Trace != nil {
		span.Graft(st.Trace, arrived)
	}
	if st.State != "done" {
		return nil, 0, fmt.Errorf("chunk failed: %v", st.Errors)
	}
	snap, err := merge.Decode(bytes.NewReader(rest))
	if err != nil {
		return nil, 0, fmt.Errorf("decode profile: %w", err)
	}
	return snap, st.Steps, nil
}

// fetchFleet GETs one fleet cell's encoded bytes from the worker.
func (w *workerClient) fetchFleet(ctx context.Context, bench string, k int) ([]byte, error) {
	path := fmt.Sprintf("/v1/profiles/%s?k=%d", bench, k)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.cli.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return raw, nil
}

// installFleet PUTs a fleet cell onto the worker (replace semantics on the
// worker side), retrying 429 like chunk.
func (w *workerClient) installFleet(ctx context.Context, bench string, snap *merge.Snapshot) error {
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, w.base+"/v1/profiles/"+bench, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		resp, err := w.cli.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusNoContent:
			return nil
		case http.StatusTooManyRequests:
			if err := w.backoff.Sleep(ctx, attempt, 2*time.Millisecond, 100*time.Millisecond); err != nil {
				return fmt.Errorf("install fleet %s: %w", bench, err)
			}
		default:
			return fmt.Errorf("install fleet %s: status %d", bench, resp.StatusCode)
		}
	}
}

// deleteFleet drops one fleet cell from the worker (best-effort handoff
// cleanup; idempotent on the worker side).
func (w *workerClient) deleteFleet(ctx context.Context, bench string, k int) error {
	url := fmt.Sprintf("%s/v1/profiles/%s?k=%d", w.base, bench, k)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	resp, err := w.cli.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete fleet %s: status %d", bench, resp.StatusCode)
	}
	return nil
}
