package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/profile"
	"pathprof/internal/profstore"
	"pathprof/internal/server"
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

// withDefaults fills the dispatch defaults; the job front-end applies its
// own (QueueCap, Runners, MaxShards, JobTimeout).
func (c Config) withDefaults() Config {
	if c.ChunkShards <= 0 {
		c.ChunkShards = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
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

// Coordinator fans profiling jobs out across the worker ring and owns the
// authoritative fleet fold. Its job API is the daemon's job front-end
// (server.Front) running coordinator jobs. Create with New, wire Handler
// into an http.Server, call Start, and Drain before exit.
type Coordinator struct {
	*server.Front
	cfg     Config
	ring    *Ring
	mux     *http.ServeMux
	metrics cmetrics
	log     *slog.Logger
	// backoff paces chunk re-dispatches.
	backoff *server.Backoff

	workersMu sync.RWMutex
	workers   map[string]*workerClient

	fleetMu sync.Mutex
	fleet   map[profstore.CellKey]*cell
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
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes),
		metrics: newCmetrics(),
		log:     lg,
		backoff: server.NewBackoff(cfg.Seed),
		workers: map[string]*workerClient{},
		fleet:   map[profstore.CellKey]*cell{},
	}
	// The front-end's pipelines only clamp degrees and estimate; the zero
	// pipeline options suffice.
	c.Front = server.NewFront(server.Config{
		QueueCap: cfg.QueueCap, Runners: cfg.Runners, MaxShards: cfg.MaxShards,
		JobTimeout: cfg.JobTimeout, Logger: lg,
	}, server.Role{
		Root: StageClusterJob, Queue: StageClusterQueue, IDPrefix: "c-", Log: "cjob", Noun: "coordinator",
		Run: c.runJob,
		// A job no member can run would only time out: refuse it.
		Unavailable: func() error {
			if c.ring.Len() == 0 {
				return errors.New("no workers in the ring")
			}
			return nil
		},
	})
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
	c.mux = http.NewServeMux()
	for _, rt := range routes {
		c.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(c, w, r) })
	}
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
// (with 429 retries) that returns the merged sub-profile, checked against
// the job's degree k and program info. Failed attempts — a bad answer
// included — move to another worker with jittered backoff, up to
// MaxAttempts; every terminal error is a *ShardError blaming the worker and
// the chunk's first shard index.
func (c *Coordinator) dispatchChunk(ctx context.Context, j *server.Job, info *profile.Info, k int, ck chunkSpec) (*merge.Snapshot, int64, string, error) {
	span := j.Span().Child(StageChunk)
	span.SetAttr("shard", strconv.Itoa(ck.start))
	defer span.End()

	sub := j.Request()
	sub.Seed += uint64(ck.start)
	sub.Shards = ck.n
	var lastErr error
	lastWorker := ""
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.metrics.chunkRetries.Add(1)
			if err := c.backoff.Sleep(ctx, attempt-1, 5*time.Millisecond, 250*time.Millisecond); err != nil {
				break
			}
		}
		w := c.pickWorker(lastWorker)
		if w == nil {
			return nil, 0, "", &ShardError{Worker: "(none)", Shard: ck.start,
				Err: errors.New("cluster: no workers in the ring")}
		}
		lastWorker = w.base
		snap, steps, err := c.attemptChunk(ctx, j, w, sub, ck, info, k)
		c.metrics.workerDispatch(w.base, err)
		if err == nil {
			return snap, steps, w.base, nil
		}
		lastErr = err
		c.log.Warn("job.chunk.attempt_failed", "job_id", j.ID(), "shard", ck.start,
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
// the worker's span tree from the answer. An answer that is not a profile
// of the job's program at degree k fails the attempt, so no fold sees it.
func (c *Coordinator) attemptChunk(ctx context.Context, j *server.Job, w *workerClient,
	sub server.JobRequest, ck chunkSpec, info *profile.Info, k int) (*merge.Snapshot, int64, error) {
	span := j.Span().Child(StageAttempt)
	span.SetAttr("shard", strconv.Itoa(ck.start))
	span.SetAttr("worker", w.base)
	defer span.End()
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	defer w.addLoad(-1)

	snap, steps, err := w.chunk(actx, sub, span)
	if err == nil {
		err = (&merge.Snapshot{K: k, NumFuncs: len(info.Funcs)}).Compatible(snap)
	}
	if err == nil {
		err = info.CheckRecords(snap.Counters)
	}
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
func (c *Coordinator) runJob(ctx context.Context, j *server.Job) {
	req := j.Request()
	p, k := j.Resolve(StageClusterPlan)
	if p == nil {
		return
	}

	// Fan out. The fold accumulator starts as the identity snapshot; each
	// finished chunk folds in under the mutex and is dropped — the
	// coordinator never holds more than in-flight chunks + 1 snapshots.
	acc := merge.Empty(k, len(p.Info.Funcs))
	foldSpan := j.Span().Child(StageClusterFold)
	var foldMu sync.Mutex
	var steps int64
	var failed []server.ShardError
	var wg sync.WaitGroup
	for _, ck := range c.chunks(req.Shards) {
		wg.Add(1)
		go func(ck chunkSpec) {
			defer wg.Done()
			c.metrics.chunksDispatched.Add(1)
			snap, st, worker, err := c.dispatchChunk(ctx, j, p.Info, k, ck)
			foldMu.Lock()
			defer foldMu.Unlock()
			j.AddShardsDone(ck.n)
			if err == nil {
				// Answers are checked against the job's cell before they
				// get here, so a failing fold is an internal fault: blame
				// it like any other chunk failure.
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
		j.FailShards(failed)
		return
	}

	res := &server.JobResult{
		Funcs: acc.NumFuncs, MaxDegree: p.Info.MaxDegree(), K: k, Iters: 2,
		Steps: steps, Mass: acc.Mass(), MergeNs: foldSpan.Duration().Nanoseconds(),
	}
	estSpan := j.Span().Child(StageClusterEstimate)
	err := res.Estimate(p, acc)
	estSpan.End()
	if err != nil {
		j.Fail(err.Error())
		return
	}

	if req.Benchmark != "" {
		pushSpan := j.Span().Child(StageFleetPush)
		err = c.foldFleet(ctx, profstore.CellKey{Bench: req.Benchmark, K: k}, acc)
		pushSpan.End()
		if err != nil {
			j.Fail("fleet fold: " + err.Error())
			return
		}
	}
	j.Done(res, acc)
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
