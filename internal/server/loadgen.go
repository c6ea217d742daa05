package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pathprof/internal/stats"
	"pathprof/internal/workload"
)

// LoadConfig tunes a fleet-style load run against a pathprofd instance.
type LoadConfig struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:7422".
	BaseURL string
	// Jobs is the total number of jobs to push through (default 64).
	Jobs int
	// Concurrency is the number of concurrent submitters (default 8).
	// Each holds at most one job in flight, so this is also the offered
	// concurrent-job load.
	Concurrency int
	// Shards/K parameterize every submitted job (defaults 4 and 1).
	Shards int
	K      int
	// Benchmarks cycles the submitted programs (default: all bundled
	// workload benchmarks).
	Benchmarks []string
	// JobTimeout bounds one job's submit-to-done wait (default 2m).
	JobTimeout time.Duration
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Jobs <= 0 {
		c.Jobs = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if len(c.Benchmarks) == 0 {
		for _, b := range workload.All() {
			c.Benchmarks = append(c.Benchmarks, b.Name)
		}
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// LoadReport is the outcome of one load run — the BENCH_server.json payload.
type LoadReport struct {
	Jobs        int      `json:"jobs"`
	Concurrency int      `json:"concurrency"`
	Shards      int      `json:"shards"`
	K           int      `json:"k"`
	Benchmarks  []string `json:"benchmarks"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Rejected counts 429 bounces (each retried until accepted, so
	// rejected jobs still complete; the count measures backpressure, not
	// loss).
	Rejected int `json:"rejected"`

	DurationSec float64 `json:"duration_sec"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// Latency is submit-to-done per job, milliseconds.
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`

	// Stages holds one row per server-side stage histogram, keyed by the
	// stable metric name (HistogramMetricNames), folded from the daemon's
	// /metrics snapshot at the end of the run.
	Stages map[string]StageStats `json:"stages,omitempty"`

	Metrics *MetricsSnapshot `json:"server_metrics,omitempty"`
}

// StageStats is one per-stage row of a load report: the count and the
// estimated quantiles of the stage's server-side histogram. Latency stages
// are in milliseconds, snapshot_bytes in bytes.
type StageStats struct {
	// Count is the histogram's observation count.
	Count uint64 `json:"count"`
	// Mean is the exact mean of all observations.
	Mean float64 `json:"mean"`
	// P50/P95/P99 are quantile estimates from the bucket boundaries.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// stageStats folds the snapshot's histograms into per-stage report rows.
func stageStats(m *MetricsSnapshot) map[string]StageStats {
	out := make(map[string]StageStats, len(HistogramMetricNames))
	for _, name := range HistogramMetricNames {
		h, ok := m.StageHistogram(name)
		if !ok || h.Count == 0 {
			continue
		}
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		out[name] = StageStats{Count: h.Count, Mean: mean, P50: h.P50, P95: h.P95, P99: h.P99}
	}
	return out
}

// RunLoad hammers the daemon: Concurrency workers each submit jobs (cycling
// the benchmark list, seeds derived from the job index), retry 429 bounces
// with backoff, poll every accepted job to completion, and time the full
// submit-to-done span. The report aggregates throughput and latency
// percentiles plus the server's own /metrics snapshot.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	rep := &LoadReport{
		Jobs: cfg.Jobs, Concurrency: cfg.Concurrency, Shards: cfg.Shards,
		K: cfg.K, Benchmarks: cfg.Benchmarks,
	}

	var mu sync.Mutex
	latencies := make([]float64, 0, cfg.Jobs)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				lat, rejected, err := runOne(ctx, cfg, i)
				mu.Lock()
				rep.Rejected += rejected
				if err != nil {
					rep.Failed++
				} else {
					rep.Completed++
					latencies = append(latencies, float64(lat)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := 0; i < cfg.Jobs; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	rep.DurationSec = time.Since(start).Seconds()
	if rep.DurationSec > 0 {
		rep.JobsPerSec = float64(rep.Completed) / rep.DurationSec
	}
	rep.LatencyP50Ms = stats.Percentile(latencies, 50)
	rep.LatencyP95Ms = stats.Percentile(latencies, 95)
	rep.LatencyP99Ms = stats.Percentile(latencies, 99)
	rep.LatencyMaxMs = stats.Percentile(latencies, 100)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	if len(latencies) > 0 {
		rep.LatencyMeanMs = sum / float64(len(latencies))
	}

	if m, err := fetchMetrics(ctx, cfg); err == nil {
		rep.Metrics = m
		rep.Stages = stageStats(m)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if rep.Completed == 0 {
		return rep, fmt.Errorf("profload: no job completed (%d failed)", rep.Failed)
	}
	return rep, nil
}

// retryDelay is the nth (0-based) 429 retry delay: exponential from base,
// capped, then jittered by a uniform factor in [0.5, 1.5). Without the
// jitter, every submitter bounced by the same full queue would sleep the
// same deterministic 2ms, 4ms, 8ms... and re-offer the identical burst that
// got it 429'd in the first place; the jitter spreads the herd out.
func retryDelay(rng *rand.Rand, n int, base, cap time.Duration) time.Duration {
	d := base << uint(n)
	if d > cap || d <= 0 {
		d = cap
	}
	return time.Duration((0.5 + rng.Float64()) * float64(d))
}

// runOne pushes job i through the daemon and returns its submit-to-done
// latency plus how often the queue bounced it with 429.
func runOne(ctx context.Context, cfg LoadConfig, i int) (time.Duration, int, error) {
	req := JobRequest{
		Benchmark: cfg.Benchmarks[i%len(cfg.Benchmarks)],
		Seed:      uint64(1000 + i*cfg.Shards), // seed ranges of sharded jobs stay disjoint
		K:         cfg.K,
		Shards:    cfg.Shards,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.JobTimeout)
	defer cancel()

	start := time.Now()
	rejected := 0
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(i)<<32))
	var id string
	for attempt := 0; ; attempt++ {
		code, resp, err := doJSON(ctx, cfg.Client, http.MethodPost, cfg.BaseURL+"/v1/jobs", body)
		if err != nil {
			return 0, rejected, err
		}
		if code == http.StatusAccepted {
			id = resp["id"]
			break
		}
		if code != http.StatusTooManyRequests {
			return 0, rejected, fmt.Errorf("submit job %d: status %d", i, code)
		}
		rejected++
		select {
		case <-time.After(retryDelay(rng, attempt, 2*time.Millisecond, 200*time.Millisecond)):
		case <-ctx.Done():
			return 0, rejected, ctx.Err()
		}
	}

	for {
		code, raw, err := doRaw(ctx, cfg.Client, cfg.BaseURL+"/v1/jobs/"+id)
		if err != nil || code != http.StatusOK {
			return 0, rejected, fmt.Errorf("poll job %s: status %d err %v", id, code, err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return 0, rejected, err
		}
		switch st.State {
		case "done":
			return time.Since(start), rejected, nil
		case "failed":
			return 0, rejected, fmt.Errorf("job %s failed", id)
		}
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
			return 0, rejected, ctx.Err()
		}
	}
}

func doJSON(ctx context.Context, cli *http.Client, method, url string, body []byte) (int, map[string]string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cli.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck // error bodies may be empty
	return resp.StatusCode, out, nil
}

func doRaw(ctx context.Context, cli *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := cli.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func fetchMetrics(ctx context.Context, cfg LoadConfig) (*MetricsSnapshot, error) {
	code, raw, err := doRaw(ctx, cfg.Client, cfg.BaseURL+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
