package server

import (
	"net/http"
	"sync/atomic"

	"pathprof/internal/obs"
	"pathprof/internal/profstore"
)

// Stable metric names: the JSON keys of MetricsSnapshot's per-stage
// histograms. They are documented in DESIGN.md §12 and docs/OPERATIONS.md,
// asserted against those docs by internal/tools/docscheck in CI, and folded
// into BENCH_server.json by the load generator — treat them as a public
// interface and never rename one without updating all three.
const (
	// MetricQueueWaitMs measures accept-to-dequeue latency per job, ms.
	MetricQueueWaitMs = "queue_wait_ms"
	// MetricShardExecuteMs measures one shard's instrumented execution
	// (pool wait excluded), ms.
	MetricShardExecuteMs = "shard_execute_ms"
	// MetricMergeMs measures folding one job's shard snapshots, ms.
	MetricMergeMs = "merge_ms"
	// MetricEstimateMs measures the flow estimation over a merged
	// profile, ms.
	MetricEstimateMs = "estimate_ms"
	// MetricSnapshotBytes measures the encoded size of every served
	// profile snapshot (per-job and fleet), bytes.
	MetricSnapshotBytes = "snapshot_bytes"
	// MetricPersistMs measures the durable profile-store append — frame,
	// write, fsync — per ingested snapshot, ms. Empty without -data-dir.
	MetricPersistMs = "persist_ms"
)

// HistogramMetricNames lists every histogram-valued metric name on
// MetricsSnapshot, in serving order — the set docscheck cross-references
// against the documentation and profload folds into per-stage report rows.
var HistogramMetricNames = []string{
	MetricQueueWaitMs,
	MetricShardExecuteMs,
	MetricMergeMs,
	MetricEstimateMs,
	MetricSnapshotBytes,
	MetricPersistMs,
}

// Metrics is the daemon's instrumentation: flat counters and gauges updated
// with atomics on the hot paths, plus fixed-boundary obs.Histogram
// distributions for the per-stage latencies and served snapshot sizes.
// Everything renders as one JSON object on /metrics (MetricsSnapshot).
type Metrics struct {
	shardsRun     atomic.Int64
	shardErrors   atomic.Int64
	merges        atomic.Int64
	fleetInstalls atomic.Int64
	foldErrors    atomic.Int64

	queueWaitMs    *obs.Histogram
	shardExecuteMs *obs.Histogram
	mergeMs        *obs.Histogram
	estimateMs     *obs.Histogram
	snapshotBytes  *obs.Histogram
	persistMs      *obs.Histogram
}

// newMetrics allocates the histogram set over the standard boundary
// ladders (obs.DefLatencyBoundsMs / obs.DefSizeBoundsBytes).
func newMetrics() Metrics {
	return Metrics{
		queueWaitMs:    obs.NewHistogram(obs.DefLatencyBoundsMs),
		shardExecuteMs: obs.NewHistogram(obs.DefLatencyBoundsMs),
		mergeMs:        obs.NewHistogram(obs.DefLatencyBoundsMs),
		estimateMs:     obs.NewHistogram(obs.DefLatencyBoundsMs),
		snapshotBytes:  obs.NewHistogram(obs.DefSizeBoundsBytes),
		persistMs:      obs.NewHistogram(obs.DefLatencyBoundsMs),
	}
}

// MetricsSnapshot is the rendered /metrics payload: stable flat counters
// plus one histogram snapshot per pipeline stage. The JSON tags are the
// stable metric names the load generator and the docscheck CI step key on.
type MetricsSnapshot struct {
	// JobsAccepted counts submissions that entered the queue.
	JobsAccepted int64 `json:"jobs_accepted"`
	// JobsRejected counts submissions bounced with 429 by a full queue.
	JobsRejected int64 `json:"jobs_rejected"`
	// JobsCompleted counts jobs that reached the done state.
	JobsCompleted int64 `json:"jobs_completed"`
	// JobsFailed counts jobs that reached the failed state.
	JobsFailed int64 `json:"jobs_failed"`
	// JobsInFlight gauges jobs currently executing on a runner.
	JobsInFlight int64 `json:"jobs_in_flight"`
	// QueueDepth gauges jobs accepted but not yet picked up by a runner.
	QueueDepth int `json:"queue_depth"`
	// ShardsExecuted counts completed shard runs (successful or not).
	ShardsExecuted int64 `json:"shards_executed"`
	// ShardErrors counts failed shard runs.
	ShardErrors int64 `json:"shard_errors"`
	// Merges counts shard-snapshot folds.
	Merges int64 `json:"merges"`
	// FleetInstalls counts PUT fleet-cell installs (coordinator pushes and
	// ring handoffs land here).
	FleetInstalls int64 `json:"fleet_installs"`
	// FleetFoldErrors counts jobs failed because their snapshot could not
	// fold into the benchmark's fleet cell (the cell is left unchanged).
	FleetFoldErrors int64 `json:"fleet_fold_errors"`

	// QueueWaitMs is the accept-to-dequeue latency distribution, ms.
	QueueWaitMs obs.HistogramSnapshot `json:"queue_wait_ms"`
	// ShardExecuteMs is the per-shard execution latency distribution, ms.
	ShardExecuteMs obs.HistogramSnapshot `json:"shard_execute_ms"`
	// MergeMs is the per-job merge latency distribution, ms.
	MergeMs obs.HistogramSnapshot `json:"merge_ms"`
	// EstimateMs is the per-job flow-estimation latency distribution, ms.
	EstimateMs obs.HistogramSnapshot `json:"estimate_ms"`
	// SnapshotBytes is the served-snapshot size distribution, bytes.
	SnapshotBytes obs.HistogramSnapshot `json:"snapshot_bytes"`
	// PersistMs is the durable store-append latency distribution, ms
	// (zero-count without -data-dir).
	PersistMs obs.HistogramSnapshot `json:"persist_ms"`

	// Store carries the persistent profile store's gauges — segment count,
	// on-disk log bytes, records, compactions, blamed corrupt records —
	// nil when the daemon runs without -data-dir. Field meanings are
	// documented in docs/OPERATIONS.md.
	Store *profstore.Metrics `json:"store,omitempty"`
}

// StageHistogram returns the named stage histogram from the snapshot, by
// stable metric name, and whether the name is known — how the load
// generator iterates HistogramMetricNames without hard-coding fields.
func (m *MetricsSnapshot) StageHistogram(name string) (obs.HistogramSnapshot, bool) {
	switch name {
	case MetricQueueWaitMs:
		return m.QueueWaitMs, true
	case MetricShardExecuteMs:
		return m.ShardExecuteMs, true
	case MetricMergeMs:
		return m.MergeMs, true
	case MetricEstimateMs:
		return m.EstimateMs, true
	case MetricSnapshotBytes:
		return m.SnapshotBytes, true
	case MetricPersistMs:
		return m.PersistMs, true
	}
	return obs.HistogramSnapshot{}, false
}

func (s *Server) metricsSnapshot() MetricsSnapshot {
	m, jc := &s.metrics, s.Counts()
	return MetricsSnapshot{
		JobsAccepted:    jc.Accepted,
		JobsRejected:    jc.Rejected,
		JobsCompleted:   jc.Completed,
		JobsFailed:      jc.Failed,
		JobsInFlight:    jc.InFlight,
		QueueDepth:      jc.QueueDepth,
		ShardsExecuted:  m.shardsRun.Load(),
		ShardErrors:     m.shardErrors.Load(),
		Merges:          m.merges.Load(),
		FleetInstalls:   m.fleetInstalls.Load(),
		FleetFoldErrors: m.foldErrors.Load(),
		QueueWaitMs:     m.queueWaitMs.Snapshot(),
		ShardExecuteMs:  m.shardExecuteMs.Snapshot(),
		MergeMs:         m.mergeMs.Snapshot(),
		EstimateMs:      m.estimateMs.Snapshot(),
		SnapshotBytes:   m.snapshotBytes.Snapshot(),
		PersistMs:       m.persistMs.Snapshot(),
		Store:           s.storeMetrics(),
	}
}

// storeMetrics summarizes the persistent store for /metrics, or nil when
// the daemon runs purely in memory.
func (s *Server) storeMetrics() *profstore.Metrics {
	if s.cfg.Persist == nil {
		return nil
	}
	m := s.cfg.Persist.MetricsSnapshot()
	return &m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.metricsSnapshot())
}
