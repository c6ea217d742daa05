package cluster

import (
	"sort"
	"sync"
	"sync/atomic"

	"pathprof/internal/obs"
	"pathprof/internal/profstore"
)

// cmetrics is the coordinator's instrumentation: cluster-global counters,
// two latency histograms, and a per-worker row for every node that ever
// received a dispatch — the per-node visibility a fleet operator needs to
// spot one slow or flapping worker inside an otherwise healthy ring.
type cmetrics struct {
	chunksDispatched atomic.Int64
	chunkRetries     atomic.Int64
	pushFailures     atomic.Int64
	foldErrors       atomic.Int64
	handoffs         atomic.Int64
	joins            atomic.Int64
	leaves           atomic.Int64

	chunkMs *obs.Histogram
	foldMs  *obs.Histogram

	mu      sync.Mutex
	workers map[string]*workerCounters
}

// workerCounters is one worker's dispatch ledger.
type workerCounters struct {
	dispatched atomic.Int64
	failures   atomic.Int64
	installs   atomic.Int64
}

func newCmetrics() cmetrics {
	return cmetrics{
		chunkMs: obs.NewHistogram(obs.DefLatencyBoundsMs),
		foldMs:  obs.NewHistogram(obs.DefLatencyBoundsMs),
		workers: map[string]*workerCounters{},
	}
}

// ensureWorker materializes the per-worker row (rows persist after a leave:
// the ledger of a departed node is still operator-relevant history).
func (m *cmetrics) ensureWorker(base string) *workerCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.workers[base]
	if w == nil {
		w = &workerCounters{}
		m.workers[base] = w
	}
	return w
}

// workerDispatch records one dispatch attempt outcome against a worker.
func (m *cmetrics) workerDispatch(base string, err error) {
	w := m.ensureWorker(base)
	w.dispatched.Add(1)
	if err != nil {
		w.failures.Add(1)
	}
}

// workerInstall records one successful fleet-cell install on a worker.
func (m *cmetrics) workerInstall(base string) {
	m.ensureWorker(base).installs.Add(1)
}

// WorkerMetrics is one per-node row of the coordinator's /metrics payload.
type WorkerMetrics struct {
	// Dispatched counts chunk dispatch attempts sent to the worker.
	Dispatched int64 `json:"dispatched"`
	// Failures counts dispatch attempts that errored (crash, timeout,
	// rejection, corrupt response).
	Failures int64 `json:"failures"`
	// Installs counts fleet-cell installs pushed to the worker.
	Installs int64 `json:"installs"`
	// InFlight gauges chunks currently executing on the worker; zero and
	// omitted for departed members.
	InFlight int `json:"in_flight"`
	// Member reports whether the worker is currently in the ring.
	Member bool `json:"member"`
}

// ClusterMetrics is the coordinator's GET /metrics payload.
type ClusterMetrics struct {
	// Members is the current ring size.
	Members int `json:"members"`
	// JobsAccepted counts submissions that entered the queue.
	JobsAccepted int64 `json:"jobs_accepted"`
	// JobsRejected counts submissions bounced with 429 by a full queue.
	JobsRejected int64 `json:"jobs_rejected"`
	// JobsCompleted counts jobs that reached the done state.
	JobsCompleted int64 `json:"jobs_completed"`
	// JobsFailed counts jobs that reached the failed state.
	JobsFailed int64 `json:"jobs_failed"`
	// JobsInFlight gauges jobs currently on a runner.
	JobsInFlight int64 `json:"jobs_in_flight"`
	// QueueDepth gauges accepted-but-not-started jobs.
	QueueDepth int `json:"queue_depth"`
	// ChunksDispatched counts shard chunks handed to dispatch.
	ChunksDispatched int64 `json:"chunks_dispatched"`
	// ChunkRetries counts chunk re-dispatches after a failed attempt.
	ChunkRetries int64 `json:"chunk_retries"`
	// FleetPushFailures counts fleet-cell installs that failed (the cell
	// stays dirty and re-pushes).
	FleetPushFailures int64 `json:"fleet_push_failures"`
	// FleetFoldErrors counts job snapshots that could not fold into their
	// authoritative fleet cell (the job fails; the cell is unchanged).
	FleetFoldErrors int64 `json:"fleet_fold_errors"`
	// Handoffs counts fleet cells re-homed by membership changes.
	Handoffs int64 `json:"handoffs"`
	// Joins and Leaves count membership changes.
	Joins  int64 `json:"joins"`
	Leaves int64 `json:"leaves"`

	// ChunkMs is the per-chunk dispatch latency distribution (the whole
	// chunk call, successful attempts), ms.
	ChunkMs obs.HistogramSnapshot `json:"chunk_ms"`
	// FoldMs is the per-job streaming-fold latency distribution, ms.
	FoldMs obs.HistogramSnapshot `json:"fold_ms"`

	// Workers holds one row per node that ever received a dispatch,
	// keyed by base URL.
	Workers map[string]WorkerMetrics `json:"workers"`

	// Store carries the checkpoint store's gauges when the coordinator
	// runs with -data-dir; nil otherwise. Field meanings are documented in
	// docs/OPERATIONS.md.
	Store *profstore.Metrics `json:"store,omitempty"`
}

func (c *Coordinator) metricsSnapshot() ClusterMetrics {
	m, jc := &c.metrics, c.Counts()
	out := ClusterMetrics{
		Members:           c.ring.Len(),
		JobsAccepted:      jc.Accepted,
		JobsRejected:      jc.Rejected,
		JobsCompleted:     jc.Completed,
		JobsFailed:        jc.Failed,
		JobsInFlight:      jc.InFlight,
		QueueDepth:        jc.QueueDepth,
		ChunksDispatched:  m.chunksDispatched.Load(),
		ChunkRetries:      m.chunkRetries.Load(),
		FleetPushFailures: m.pushFailures.Load(),
		FleetFoldErrors:   m.foldErrors.Load(),
		Handoffs:          m.handoffs.Load(),
		Joins:             m.joins.Load(),
		Leaves:            m.leaves.Load(),
		ChunkMs:           m.chunkMs.Snapshot(),
		FoldMs:            m.foldMs.Snapshot(),
		Workers:           map[string]WorkerMetrics{},
	}
	if c.cfg.Persist != nil {
		sm := c.cfg.Persist.MetricsSnapshot()
		out.Store = &sm
	}
	members := map[string]bool{}
	for _, n := range c.ring.Nodes() {
		members[n] = true
	}
	m.mu.Lock()
	names := make([]string, 0, len(m.workers))
	for n := range m.workers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		wc := m.workers[n]
		row := WorkerMetrics{
			Dispatched: wc.dispatched.Load(),
			Failures:   wc.failures.Load(),
			Installs:   wc.installs.Load(),
			Member:     members[n],
		}
		if w := c.worker(n); w != nil {
			row.InFlight = w.load()
		}
		out.Workers[n] = row
	}
	m.mu.Unlock()
	return out
}
