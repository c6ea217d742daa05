package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/limits"
	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/pipeline"
	"pathprof/internal/profstore"
	"pathprof/internal/server"
	"pathprof/internal/workload"
)

// Stable coordinator span stage names, the cluster-side analogue of the
// worker taxonomy in DESIGN.md §12:
//
//	cjob
//	├── cqueue             accepted → picked up by a runner
//	├── cplan              local pipeline resolve (degree clamp + estimate)
//	├── chunk (×M)         one per dispatched shard chunk; all attempts
//	├── attempt (×A)       one chunk call on one worker; a root child, named
//	│   │                  by its chunk's shard attr
//	│   └── job            the worker's span tree from the answer, grafted
//	├── cfold              streaming fold of chunk snapshots
//	├── cestimate          flow estimation over the folded profile
//	└── fleetpush          installing the fleet cell on its ring owner
const (
	// StageClusterJob is the root span of one coordinator job.
	StageClusterJob = "cjob"
	// StageClusterQueue covers the coordinator queue wait.
	StageClusterQueue = "cqueue"
	// StageClusterPlan covers the local pipeline resolve.
	StageClusterPlan = "cplan"
	// StageChunk covers one shard chunk end to end, retries included.
	StageChunk = "chunk"
	// StageAttempt covers one dispatch attempt on one worker.
	StageAttempt = "attempt"
	// StageClusterFold covers folding chunk snapshots into the job profile.
	StageClusterFold = "cfold"
	// StageClusterEstimate covers the flow estimation on the coordinator.
	StageClusterEstimate = "cestimate"
	// StageFleetPush covers installing the fleet cell on its owner worker.
	StageFleetPush = "fleetpush"
)

// SpanStages lists every stage name a coordinator job trace can contain,
// root first.
var SpanStages = []string{
	StageClusterJob, StageClusterQueue, StageClusterPlan, StageChunk,
	StageAttempt, StageClusterFold, StageClusterEstimate, StageFleetPush,
}

// Config tunes a Coordinator. The zero value is serviceable except for
// Workers, which seeds the initial membership (join/leave can change it
// later).
type Config struct {
	// Workers are the initial member base URLs, e.g.
	// ["http://10.0.0.1:7422", "http://10.0.0.2:7422"].
	Workers []string
	// QueueCap bounds the coordinator job queue; a full queue rejects
	// submissions with 429 (default 256).
	QueueCap int
	// Runners is the number of concurrent job coordinators (default
	// GOMAXPROCS). Each in-flight job additionally fans its chunks out
	// concurrently; chunks are HTTP waits, not CPU.
	Runners int
	// MaxShards caps the per-job shard count (default 64).
	MaxShards int
	// ChunkShards is how many shards ride in one dispatched sub-job
	// (default 1: maximum dispatch freedom, one retry unit per shard).
	ChunkShards int
	// MaxAttempts bounds how many workers a chunk may be tried on before
	// the job fails (default 4).
	MaxAttempts int
	// AttemptTimeout bounds one dispatch attempt, the whole chunk call
	// (default 30s) — a hung worker costs one attempt, not the job. Keep it
	// at or below the workers' request timeout, which also cuts the call.
	AttemptTimeout time.Duration
	// JobTimeout bounds one job's wall clock (default 2m).
	JobTimeout time.Duration
	// Vnodes is the ring's virtual-node count per member (default
	// DefaultVnodes).
	Vnodes int
	// Client overrides the worker HTTP client (default
	// http.DefaultClient). The fault-injecting test rig does not need
	// this — it injects at the worker listener — but a production
	// deployment sets transport timeouts here.
	Client *http.Client
	// Logger receives the coordinator's structured logs (nil = the
	// process-wide obs.Logger()).
	Logger *slog.Logger
	// Seed derives the per-worker backoff jitter streams (0 = a fixed
	// default; any value works, it only decorrelates retries).
	Seed int64
	// Persist, when non-nil, checkpoints the authoritative fleet fold: New
	// primes the fleet from its replayed cells (marked dirty so the next
	// rebalance or read re-installs them on their ring owners), and every
	// fleet fold appends to it before the in-memory merge — a fold the
	// coordinator acknowledged survives kill -9. The caller owns the store's
	// lifecycle: open it before New, close it after Drain.
	Persist *profstore.Store
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Runners <= 0 {
		c.Runners = runtime.GOMAXPROCS(0)
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.ChunkShards <= 0 {
		c.ChunkShards = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 0x70617468 // arbitrary fixed default; only decorrelates jitter
	}
	return c
}

// cell is the coordinator's authoritative record of one fleet cell: the
// fold itself, where it was last installed, and whether that install is
// known stale (dirty cells serve and re-push from the authoritative copy).
type cell struct {
	snap        *merge.Snapshot
	installedOn string
	dirty       bool
	// pushMu serializes installs of this cell. Installs are replacements, so
	// two concurrent pushes arriving out of order would leave the owner
	// holding the older fold; under pushMu each push re-clones the newest
	// authoritative state, making installs strictly version-ordered.
	pushMu sync.Mutex
}

// cjob is one coordinator-side job record.
type cjob struct {
	id  string
	req server.JobRequest

	span      *obs.Span
	queueSpan *obs.Span

	mu         sync.Mutex
	state      string
	shardsDone int
	errors     []server.ShardError
	result     *server.JobResult
	snap       *merge.Snapshot
	done       chan struct{}
}

func (j *cjob) status() server.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := server.JobStatus{
		ID: j.id, State: j.state, Benchmark: j.req.Benchmark,
		K: j.req.K, Iters: j.req.Iters, Shards: j.req.Shards, ShardsDone: j.shardsDone,
		Errors: append([]server.ShardError(nil), j.errors...),
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}

// pipeEntry is a singleflight slot for one program's local pipeline (the
// coordinator never executes it; it needs Info for degree clamping and the
// estimator).
type pipeEntry struct {
	once sync.Once
	p    *pipeline.Pipeline
	err  error
}

// Coordinator fans profiling jobs out across the worker ring and owns the
// authoritative fleet fold. Create with New, wire Handler into an
// http.Server, call Start, and Drain before exit.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	mux     *http.ServeMux
	queue   chan *cjob
	metrics cmetrics
	log     *slog.Logger

	workersMu sync.RWMutex
	workers   map[string]*workerClient

	jobsMu  sync.RWMutex
	jobs    map[string]*cjob
	settled server.SettledJobs
	nextID  int

	pipesMu sync.Mutex
	pipes   map[string]*pipeEntry

	fleetMu sync.Mutex
	fleet   map[profstore.CellKey]*cell

	rngMu sync.Mutex
	rng   *rand.Rand

	drainMu   sync.RWMutex
	accepting bool
	jobWG     sync.WaitGroup

	runCtx    context.Context
	cancelRun context.CancelFunc
	runnerWG  sync.WaitGroup
}

// New builds a Coordinator over the configured initial workers. Call Start
// to launch its job runners.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	lg := cfg.Logger
	if lg == nil {
		lg = obs.Logger()
	}
	c := &Coordinator{
		cfg:       cfg,
		ring:      NewRing(cfg.Vnodes),
		queue:     make(chan *cjob, cfg.QueueCap),
		metrics:   newCmetrics(),
		log:       lg,
		workers:   map[string]*workerClient{},
		jobs:      map[string]*cjob{},
		pipes:     map[string]*pipeEntry{},
		fleet:     map[profstore.CellKey]*cell{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		accepting: true,
	}
	c.runCtx, c.cancelRun = context.WithCancel(context.Background())
	if cfg.Persist != nil {
		// Resume the authoritative fold from the checkpoint. Cells start
		// dirty: nothing is installed on any worker yet, so reads serve the
		// authoritative copy and the first rebalance or read re-pushes.
		for key, snap := range cfg.Persist.Cells() {
			c.fleet[key] = &cell{snap: snap, dirty: true}
		}
	}
	for _, w := range cfg.Workers {
		c.addWorkerLocked(w)
	}
	c.initMux()
	return c
}

// addWorkerLocked registers a worker client and its ring membership (callers
// hold no locks; the name records that it skips handoff — used for the
// initial membership where there is nothing to hand off).
func (c *Coordinator) addWorkerLocked(base string) bool {
	if !c.ring.Add(base) {
		return false
	}
	c.workersMu.Lock()
	c.workers[base] = newWorkerClient(base, c.cfg.Client, c.cfg.Seed^int64(hash64(base)))
	c.workersMu.Unlock()
	c.metrics.ensureWorker(base)
	return true
}

// Start launches the runner goroutines.
func (c *Coordinator) Start() {
	for i := 0; i < c.cfg.Runners; i++ {
		c.runnerWG.Add(1)
		go func() {
			defer c.runnerWG.Done()
			for {
				select {
				case j := <-c.queue:
					c.process(j)
				case <-c.runCtx.Done():
					return
				}
			}
		}()
	}
}

// process runs one dequeued job to completion and settles it, forgetting
// the oldest settled job beyond server.MaxSettledJobs.
func (c *Coordinator) process(j *cjob) {
	c.runJob(j)
	c.jobsMu.Lock()
	if old, ok := c.settled.Settle(j.id); ok {
		delete(c.jobs, old)
	}
	c.jobsMu.Unlock()
	c.jobWG.Done()
}

// Drain stops accepting new jobs and waits until every accepted job has
// completed, or ctx expires.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.drainMu.Lock()
	c.accepting = false
	c.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		c.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the runner goroutines; Drain first for a loss-free shutdown.
func (c *Coordinator) Close() {
	c.cancelRun()
	c.runnerWG.Wait()
}

// AddWorker joins a node to the ring and hands off every fleet cell whose
// ownership moved to it. Returns false if the node is already a member.
func (c *Coordinator) AddWorker(ctx context.Context, base string) bool {
	if !c.addWorkerLocked(base) {
		return false
	}
	c.metrics.joins.Add(1)
	c.log.Info("cluster.join", "worker", base, "members", c.ring.Len())
	c.rebalance(ctx)
	return true
}

// RemoveWorker removes a node from the ring and hands its fleet cells off
// to their new owners (from the coordinator's authoritative copies — the
// node may already be dead). Returns false if the node is not a member.
func (c *Coordinator) RemoveWorker(ctx context.Context, base string) bool {
	if !c.ring.Remove(base) {
		return false
	}
	c.workersMu.Lock()
	delete(c.workers, base)
	c.workersMu.Unlock()
	c.metrics.leaves.Add(1)
	c.log.Info("cluster.leave", "worker", base, "members", c.ring.Len())
	c.rebalance(ctx)
	return true
}

// Workers returns the current member base URLs, sorted.
func (c *Coordinator) Workers() []string { return c.ring.Nodes() }

// worker returns the client for a member base URL, if it is still a member.
func (c *Coordinator) worker(base string) *workerClient {
	c.workersMu.RLock()
	defer c.workersMu.RUnlock()
	return c.workers[base]
}

// pickWorker chooses the least-loaded current member, preferring any member
// other than avoid (the worker a previous attempt just failed on), and
// reserves one unit of load on it: the caller releases it with addLoad(-1)
// when its attempt ends. Picks hold the member lock exclusively, so the
// read of every load and the reservation are one step — the chunks of one
// job, picked back to back, spread over idle workers instead of all seeing
// equal loads. Ties break by URL order so dispatch is deterministic under
// equal load.
func (c *Coordinator) pickWorker(avoid string) *workerClient {
	c.workersMu.Lock()
	defer c.workersMu.Unlock()
	var best *workerClient
	bestLoad := 0
	pick := func(skip string) {
		names := make([]string, 0, len(c.workers))
		for n := range c.workers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if n == skip {
				continue
			}
			w := c.workers[n]
			if l := w.load(); best == nil || l < bestLoad {
				best, bestLoad = w, l
			}
		}
	}
	pick(avoid)
	if best == nil {
		pick("") // avoid was the only member left
	}
	if best != nil {
		best.addLoad(1)
	}
	return best
}

// pipelineFor resolves (at most once per program) the coordinator's local
// pipeline for a job's program — used for degree clamping and estimation,
// never execution.
func (c *Coordinator) pipelineFor(req server.JobRequest) (*pipeline.Pipeline, error) {
	key := "bench:" + req.Benchmark
	if req.Benchmark == "" {
		sum := sha256.Sum256([]byte(req.Source))
		key = "src:" + hex.EncodeToString(sum[:])
	}
	c.pipesMu.Lock()
	e := c.pipes[key]
	if e == nil {
		e = &pipeEntry{}
		c.pipes[key] = e
	}
	c.pipesMu.Unlock()
	e.once.Do(func() {
		opts := pipeline.Options{Engine: pipeline.EngineReg}
		if req.Benchmark != "" {
			b := workload.ByName(req.Benchmark)
			prog, err := b.Compile()
			if err != nil {
				e.err = err
				return
			}
			e.p, e.err = pipeline.New(prog, opts)
			return
		}
		e.p, e.err = pipeline.Compile(req.Source, opts)
	})
	return e.p, e.err
}

// sleepBackoff applies the coordinator-level jittered backoff between chunk
// dispatch attempts.
func (c *Coordinator) sleepBackoff(ctx context.Context, attempt int) error {
	c.rngMu.Lock()
	d := backoff(c.rng, attempt, 5*time.Millisecond, 250*time.Millisecond)
	c.rngMu.Unlock()
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// chunkSpec is one dispatch unit: shards [start, start+n) of the job.
type chunkSpec struct {
	start int
	n     int
}

// chunks splits a job's shard count into dispatch units of at most
// ChunkShards shards.
func (c *Coordinator) chunks(shards int) []chunkSpec {
	var out []chunkSpec
	for start := 0; start < shards; start += c.cfg.ChunkShards {
		n := c.cfg.ChunkShards
		if start+n > shards {
			n = shards - start
		}
		out = append(out, chunkSpec{start: start, n: n})
	}
	return out
}

// dispatchChunk pushes one chunk through a worker in one blocking call
// (with 429 retries) that returns the merged sub-profile. Failed attempts
// move to another worker with jittered backoff, up to
// MaxAttempts; every terminal error is a *ShardError blaming the worker and
// the chunk's first shard index.
func (c *Coordinator) dispatchChunk(ctx context.Context, j *cjob, ck chunkSpec) (*merge.Snapshot, int64, string, error) {
	span := j.span.Child(StageChunk)
	span.SetAttr("shard", strconv.Itoa(ck.start))
	defer span.End()

	sub := server.JobRequest{
		Benchmark: j.req.Benchmark, Source: j.req.Source,
		Seed: j.req.Seed + uint64(ck.start), K: j.req.K, Iters: j.req.Iters,
		Shards: ck.n,
	}
	var lastErr error
	lastWorker := ""
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.metrics.chunkRetries.Add(1)
			if err := c.sleepBackoff(ctx, attempt-1); err != nil {
				break
			}
		}
		w := c.pickWorker(lastWorker)
		if w == nil {
			return nil, 0, "", &ShardError{Worker: "(none)", Shard: ck.start,
				Err: errors.New("cluster: no workers in the ring")}
		}
		lastWorker = w.base
		snap, steps, err := c.attemptChunk(ctx, j, w, sub, ck)
		c.metrics.workerDispatch(w.base, err)
		if err == nil {
			return snap, steps, w.base, nil
		}
		lastErr = err
		c.log.Warn("job.chunk.attempt_failed", "job_id", j.id, "shard", ck.start,
			"worker", w.base, "attempt", attempt, "error", err.Error())
		if ctx.Err() != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, 0, "", &ShardError{Worker: lastWorker, Shard: ck.start,
		Err: fmt.Errorf("%w: %w", ErrAttemptsExhausted, lastErr)}
}

// attemptChunk is one blocking chunk call on one worker under the
// per-attempt timeout, releasing the load pickWorker reserved on w when it
// ends. The attempt span names the chunk it serves (attr shard) and holds
// the worker's span tree from the answer.
func (c *Coordinator) attemptChunk(ctx context.Context, j *cjob, w *workerClient,
	sub server.JobRequest, ck chunkSpec) (*merge.Snapshot, int64, error) {
	span := j.span.Child(StageAttempt)
	span.SetAttr("shard", strconv.Itoa(ck.start))
	span.SetAttr("worker", w.base)
	defer span.End()
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	defer w.addLoad(-1)

	snap, steps, err := w.chunk(actx, sub, span)
	if err != nil {
		return nil, 0, &ShardError{Worker: w.base, Shard: ck.start, Err: err}
	}
	c.metrics.chunkMs.Observe(float64(span.Duration()) / float64(time.Millisecond))
	return snap, steps, nil
}

// runJob executes one cluster job: resolve the local pipeline, fan the
// shard chunks out across the ring, fold returned snapshots in completion
// order (streaming — only the accumulator and the chunk in hand are live),
// estimate, fold into the authoritative fleet cell, and push the cell to
// its ring owner.
func (c *Coordinator) runJob(j *cjob) {
	c.metrics.jobsInFlight.Add(1)
	defer c.metrics.jobsInFlight.Add(-1)
	j.queueSpan.End()
	j.mu.Lock()
	j.state = "running"
	j.mu.Unlock()
	c.log.Info("cjob.start", "job_id", j.id, "shards", j.req.Shards, "workers", c.ring.Len())
	defer close(j.done)
	defer j.span.End()

	ctx, cancel := context.WithTimeout(c.runCtx, c.cfg.JobTimeout)
	defer cancel()

	fail := func(errs ...server.ShardError) {
		j.mu.Lock()
		j.state = "failed"
		j.errors = append(j.errors, errs...)
		j.mu.Unlock()
		c.metrics.jobsFailed.Add(1)
		c.log.Warn("cjob.failed", "job_id", j.id, "errors", len(errs))
	}

	planSpan := j.span.Child(StageClusterPlan)
	p, err := c.pipelineFor(j.req)
	planSpan.End()
	if err != nil {
		fail(server.ShardError{Shard: -1, Error: err.Error()})
		return
	}
	k := j.req.K
	if max := p.Info.MaxDegree(); k > max {
		k = max
	}

	// Fan out. The fold accumulator starts as the identity snapshot; each
	// finished chunk folds in under the mutex and is dropped — the
	// coordinator never holds more than in-flight chunks + 1 snapshots.
	acc := merge.Empty(k, len(p.Info.Funcs))
	foldSpan := j.span.Child(StageClusterFold)
	var foldMu sync.Mutex
	var steps int64
	var failed []server.ShardError
	var wg sync.WaitGroup
	for _, ck := range c.chunks(j.req.Shards) {
		wg.Add(1)
		go func(ck chunkSpec) {
			defer wg.Done()
			c.metrics.chunksDispatched.Add(1)
			snap, st, worker, err := c.dispatchChunk(ctx, j, ck)
			foldMu.Lock()
			defer foldMu.Unlock()
			j.mu.Lock()
			j.shardsDone += ck.n
			j.mu.Unlock()
			if err == nil {
				// A worker returning a snapshot from the wrong cell (degree
				// or program shape) is a fold incompatibility, not a silent
				// skip: blame it like any other chunk failure.
				if merr := acc.Merge(snap); merr != nil {
					err = &ShardError{Worker: worker, Shard: ck.start, Err: merr}
				}
			}
			if err != nil {
				var se *ShardError
				if !errors.As(err, &se) {
					se = &ShardError{Worker: "(unknown)", Shard: ck.start, Err: err}
				}
				failed = append(failed, server.ShardError{Shard: ck.start, Error: se.Error()})
				return
			}
			steps += st
		}(ck)
	}
	wg.Wait()
	foldSpan.End()
	c.metrics.foldMs.Observe(float64(foldSpan.Duration()) / float64(time.Millisecond))

	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].Shard < failed[b].Shard })
		fail(failed...)
		return
	}

	estSpan := j.span.Child(StageClusterEstimate)
	pe, err := core.FromPipeline(p).EstimateMode(core.RunFromCounters(k, 2, acc.Counters), estimate.Paper)
	estSpan.End()
	if err != nil {
		fail(server.ShardError{Shard: -1, Error: "estimating flows: " + err.Error()})
		return
	}
	vars, exact := pe.Counts()
	res := &server.JobResult{
		Funcs: acc.NumFuncs, MaxDegree: p.Info.MaxDegree(), K: k, Iters: 2,
		Steps: steps, Mass: acc.Mass(), MergeNs: foldSpan.Duration().Nanoseconds(),
		Definite: pe.Definite(), Potential: pe.Potential(),
		Vars: vars, Exact: exact, Skipped: pe.Skipped,
	}

	if j.req.Benchmark != "" {
		pushSpan := j.span.Child(StageFleetPush)
		err := c.foldFleet(ctx, profstore.CellKey{Bench: j.req.Benchmark, K: k}, acc)
		pushSpan.End()
		if err != nil {
			fail(server.ShardError{Shard: -1, Error: "fleet fold: " + err.Error()})
			return
		}
	}

	j.mu.Lock()
	j.state = "done"
	j.result = res
	j.snap = acc
	j.mu.Unlock()
	c.metrics.jobsCompleted.Add(1)
	j.span.End()
	c.log.Info("cjob.done", "job_id", j.id, "steps", steps, "mass", acc.Mass(),
		"duration_ms", j.span.Duration().Milliseconds())
}

// foldFleet merges a job snapshot into the authoritative cell and pushes
// the updated cell to its ring owner. A cell the snapshot cannot fold into
// fails the fold with an error naming the cell, before anything is
// journaled. When a checkpoint store is configured the snapshot is
// journaled (fsync'd) first and a journal failure fails the fold — the
// in-memory state never runs ahead of what a restart would recover. A
// failed push only marks the cell dirty: reads fall back to the
// authoritative copy and the next fold or read re-pushes.
func (c *Coordinator) foldFleet(ctx context.Context, key profstore.CellKey, snap *merge.Snapshot) error {
	c.fleetMu.Lock()
	var err error
	if cl := c.fleet[key]; cl != nil {
		err = cl.snap.Compatible(snap)
	}
	c.fleetMu.Unlock()
	if err != nil {
		c.metrics.foldErrors.Add(1)
		return fmt.Errorf("cell %s: %w", key, err)
	}
	if c.cfg.Persist != nil {
		// Journal outside fleetMu: appends are commutative, so the journal
		// and the in-memory fold agree regardless of interleaving, and the
		// fsync never stalls folds or reads of other cells.
		if err := c.cfg.Persist.Append(key.Bench, snap); err != nil {
			return fmt.Errorf("persisting: %w", err)
		}
	}
	c.fleetMu.Lock()
	cl := c.fleet[key]
	if cl == nil {
		cl = &cell{snap: snap.Clone()}
		c.fleet[key] = cl
	} else {
		err = cl.snap.Merge(snap)
	}
	c.fleetMu.Unlock()
	if err != nil {
		c.metrics.foldErrors.Add(1)
		return fmt.Errorf("cell %s: %w", key, err)
	}
	c.pushCell(ctx, key)
	return nil
}

// pushCell installs the cell's current authoritative snapshot on its ring
// owner and records the install location (retiring the previous owner's
// copy when ownership moved). Pushes of one cell are serialized and each
// clones the newest fold under the lock, so the last completed install
// always carries the newest state even when jobs fold concurrently.
func (c *Coordinator) pushCell(ctx context.Context, key profstore.CellKey) {
	c.fleetMu.Lock()
	cl := c.fleet[key]
	c.fleetMu.Unlock()
	if cl == nil {
		return
	}
	cl.pushMu.Lock()
	defer cl.pushMu.Unlock()

	// Resolve owner under the push lock: ownership may have moved while an
	// earlier push of this cell held it.
	owner, ok := c.ring.Owner(key.String())
	if !ok {
		return // no members: the authoritative copy is the only copy
	}
	w := c.worker(owner)
	if w == nil {
		return
	}
	c.fleetMu.Lock()
	snap := cl.snap.Clone() // encode outside the lock
	c.fleetMu.Unlock()

	err := w.installFleet(ctx, key.Bench, snap)
	c.fleetMu.Lock()
	prev := cl.installedOn
	cl.dirty = err != nil
	if err == nil {
		cl.installedOn = owner
		if prev != "" && prev != owner {
			// Retire the stale copy, best-effort: the old owner may be
			// gone, and a dangling copy is harmless (reads go through
			// the ring).
			if pw := c.worker(prev); pw != nil {
				go pw.deleteFleet(context.Background(), key.Bench, key.K) //nolint:errcheck
			}
		}
	}
	c.fleetMu.Unlock()
	if err != nil {
		c.metrics.pushFailures.Add(1)
		c.log.Warn("fleet.push.failed", "cell", key.String(), "owner", owner, "error", err.Error())
		return
	}
	c.metrics.workerInstall(owner)
	c.log.Debug("fleet.push", "cell", key.String(), "owner", owner, "mass", snap.Mass())
}

// rebalance re-pushes every fleet cell whose ring owner changed — the
// handoff path of node join/leave. Cells whose owner is unchanged are left
// alone (the ~(N-1)/N of keys consistent hashing does not move).
func (c *Coordinator) rebalance(ctx context.Context) {
	c.fleetMu.Lock()
	var moves []profstore.CellKey
	for key, cl := range c.fleet {
		owner, ok := c.ring.Owner(key.String())
		if !ok {
			cl.dirty = true
			cl.installedOn = ""
			continue
		}
		if cl.installedOn != owner || cl.dirty {
			moves = append(moves, key)
		}
	}
	c.fleetMu.Unlock()
	for _, key := range moves {
		c.metrics.handoffs.Add(1)
		c.pushCell(ctx, key)
	}
	if len(moves) > 0 {
		c.log.Info("cluster.rebalance", "cells_moved", len(moves))
	}
}

// validate mirrors the worker-side submission checks so a bad request dies
// at the coordinator instead of fanning out.
func (c *Coordinator) validate(req *server.JobRequest) error {
	if (req.Benchmark == "") == (req.Source == "") {
		return errors.New("exactly one of benchmark or source is required")
	}
	if req.Benchmark != "" && workload.ByName(req.Benchmark) == nil {
		return fmt.Errorf("unknown benchmark %q", req.Benchmark)
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	if err := errors.Join(
		limits.Shards(req.Shards, c.cfg.MaxShards),
		limits.K(req.K),
		limits.Iters(req.Iters),
	); err != nil {
		return err
	}
	req.Iters = 2
	return nil
}
