// Package server implements the pathprofd profile-aggregation daemon: a
// long-running HTTP service that accepts profiling jobs, fans each job's
// shards out across the shared pipeline worker pool on the register
// engine, folds the shard snapshots into one profile with internal/merge,
// and serves per-job results, flow estimates, and merged fleet-wide profiles
// per benchmark.
//
// API:
//
//	POST   /v1/jobs                  submit {benchmark|source, seed, k, iters,
//	                                 shards}; 202 {id} | 400 for iters other
//	                                 than 2 | 429 when the queue is full | 503
//	                                 while draining
//	POST   /v1/chunks                run the same body as one cluster chunk and
//	                                 block until it settles; 200 with a status
//	                                 line (state, errors, steps, span tree) and,
//	                                 when done, the merged snapshot | 429 | 503
//	GET    /v1/jobs/{id}             job status, shard errors, result + estimate
//	GET    /v1/jobs/{id}/profile     the job's merged counter snapshot
//	GET    /v1/jobs/{id}/trace       the job's span tree
//	GET    /v1/profiles/{benchmark}  the fleet-wide merged snapshot (?k=N
//	                                 when several cells exist; ?iters=2 is
//	                                 accepted, any other width is 400)
//	GET    /v1/pgo/{benchmark}       the same cell exported in pathprof's
//	                                 saved-run format, ready for -pgo's
//	                                 layout report
//	PUT    /v1/profiles/{benchmark}  install (replace) a fleet cell
//	DELETE /v1/profiles/{benchmark}  drop a fleet cell (?k=N, ?iters=2)
//	GET    /metrics                  expvar-style counters (see MetricsSnapshot)
//	GET    /healthz                  "ok", or "draining" during shutdown
//
// Backpressure is explicit: the job queue is bounded, an enqueue that would
// block is rejected with 429 immediately, and SIGTERM handling (in
// cmd/pathprofd) flips the server into draining mode — new jobs get 503,
// every accepted job still completes — before the process exits. Memory is
// bounded the same way: only the newest MaxSettledJobs settled jobs stay
// addressable, and an older id answers 404 on every /v1/jobs/{id} route.
// Chunks share the queue but are never kept: their answer is their only
// consumer. The queue, job table, drain, validation, program cache and job
// routes form the job front-end (Front), which the cluster coordinator
// runs too.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/instrument"
	"pathprof/internal/limits"
	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/profstore"
	"pathprof/internal/workload"
)

// Config tunes a Server. The zero value is serviceable: defaults are
// applied by New.
type Config struct {
	// QueueCap bounds the job queue; a full queue rejects submissions
	// with 429 (default 256).
	QueueCap int
	// Runners is the number of concurrent job executors (default
	// GOMAXPROCS). Shards inside each job additionally draw slots from
	// the pipeline pool, so total CPU parallelism stays bounded by the
	// pool no matter how many runners are in flight.
	Runners int
	// MaxShards caps the per-job shard count (default 64).
	MaxShards int
	// Store selects the counter-store layout shard runs write through
	// (zero value = the paged arena).
	Store profile.StoreKind
	// MaxSteps is the per-shard VM step limit (0 = the engine default);
	// runaway programs fail their shard instead of wedging a runner.
	MaxSteps int64
	// JobTimeout bounds one job's wall clock, queue-to-done (default 2m).
	JobTimeout time.Duration
	// Pool is the worker pool shard executions draw from (nil = the
	// process-wide shared pool).
	Pool *pipeline.Pool
	// Logger receives the daemon's structured job/shard transition logs
	// (nil = the process-wide obs.Logger()). Tests install an
	// obs.CaptureHandler-backed logger here to assert the documented
	// events and their order.
	Logger *slog.Logger
	// FleetIngestOnly switches the daemon into cluster-worker mode: job
	// results are NOT self-folded into fleet profiles, which accumulate
	// solely through PUT /v1/profiles/{benchmark} installs from a
	// coordinator. Chunks never fold in any mode; without it a job sent
	// straight to a worker would fold into a cell its coordinator owns, and
	// reads would serve mass the authoritative fold never saw.
	FleetIngestOnly bool
	// Persist, when set, makes the fleet fold durable: New primes the fleet
	// map from the store's replayed cells, every benchmark job's merged
	// snapshot is appended — fsync'd — to the store before the job is acked
	// as done, and fleet installs/deletes are journaled the same way. A
	// restarted daemon therefore serves /v1/profiles and /v1/pgo responses
	// byte-identical to one that never died. The caller owns the store's
	// lifecycle (open before New, close after Drain).
	Persist *profstore.Store
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = obs.Logger()
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.Runners <= 0 {
		c.Runners = runtime.GOMAXPROCS(0)
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	return c
}

// JobRequest is the POST /v1/jobs body. Exactly one of Benchmark (a bundled
// workload name, e.g. "300.twolf") or Source (program text in the bundled
// language) selects the program.
type JobRequest struct {
	Benchmark string `json:"benchmark,omitempty"`
	Source    string `json:"source,omitempty"`
	// Seed is the base RNG seed; shard i runs with Seed+i.
	Seed uint64 `json:"seed"`
	// K is the requested degree of overlap (-1 = Ball-Larus only). It is
	// clamped to the program's maximum useful degree.
	K int `json:"k"`
	// Iters is the loop window width: absent, 0 or 2 select the paper's
	// two-iteration window, and any other width is refused with 400. Kept
	// for clients that name the width.
	Iters int `json:"iters,omitempty"`
	// Shards is the number of independent runs to fan out and merge
	// (default 1).
	Shards int `json:"shards"`
}

// ShardError is one failed shard in a job status: the shard index is
// structured, not baked into a prose string, so fleet tooling can requeue
// or blame exactly the shard that failed.
type ShardError struct {
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

// JobResult is the outcome summary of a completed job.
type JobResult struct {
	// Funcs and MaxDegree describe the profiled program.
	Funcs     int `json:"funcs"`
	MaxDegree int `json:"maxDegree"`
	// K is the effective profiled degree after clamping.
	K int `json:"k"`
	// Iters is the profiled loop window width, always 2.
	Iters int `json:"iters"`
	// Steps totals executed blocks across every shard.
	Steps int64 `json:"steps"`
	// Mass is the merged snapshot's total counter mass.
	Mass uint64 `json:"mass"`
	// MergeNs is the time spent folding shard snapshots.
	MergeNs int64 `json:"mergeNs"`
	// Definite/Potential/Vars/Exact/Skipped summarize the flow estimate
	// (paper Eqs. 1-18) over the merged profile.
	Definite  int64 `json:"definite"`
	Potential int64 `json:"potential"`
	Vars      int   `json:"vars"`
	Exact     int   `json:"exact"`
	Skipped   int   `json:"skipped"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID         string       `json:"id"`
	State      string       `json:"state"` // queued | running | done | failed
	Benchmark  string       `json:"benchmark,omitempty"`
	K          int          `json:"k"`
	Iters      int          `json:"iters"`
	Shards     int          `json:"shards"`
	ShardsDone int          `json:"shardsDone"`
	Errors     []ShardError `json:"errors,omitempty"`
	Result     *JobResult   `json:"result,omitempty"`
}

// ChunkStatus is the status line of a POST /v1/chunks answer: one JSON line,
// followed — when State is done — by the chunk's merged snapshot in the
// snapshot encoding (merge.Snapshot.Encode, docs/FORMAT.md).
type ChunkStatus struct {
	State  string       `json:"state"` // done | failed
	Errors []ShardError `json:"errors,omitempty"`
	// Steps totals executed blocks across the chunk's shards.
	Steps int64 `json:"steps"`
	// Trace is the chunk's span tree on the worker: a job root with queue,
	// resolve, shard/execute and merge, and no estimate.
	Trace *obs.SpanNode `json:"trace"`
}

// Server is the aggregation daemon: the job front-end (Front) plus the
// shard fan-out, chunk calls and the fleet fold. Create with New, wire its
// Handler into an http.Server, call Start, and Drain before exit.
type Server struct {
	*Front
	mux     *http.ServeMux
	metrics Metrics
	// chunkSeq numbers chunks, which never enter the job table.
	chunkSeq atomic.Int64

	fleetMu sync.Mutex
	fleet   map[profstore.CellKey]*merge.Snapshot
}

// New builds a Server. Call Start to launch its job runners.
func New(cfg Config) *Server {
	s := &Server{
		metrics: newMetrics(),
		fleet:   map[profstore.CellKey]*merge.Snapshot{},
	}
	s.Front = NewFront(cfg, Role{
		Root: StageJob, Queue: StageQueue, IDPrefix: "j-", Log: "job", Noun: "server", Run: s.runJob,
	})
	s.served = s.metrics.snapshotBytes
	// Prime the fleet from the store's recovery replay: every cell the
	// previous process acked is served again, byte-identical (the merge
	// fold is associative and commutative, so the replayed order of the
	// log's records cannot change the bytes).
	if cfg.Persist != nil {
		s.fleet = cfg.Persist.Cells()
	}
	s.mux = http.NewServeMux()
	for _, rt := range routes {
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) })
	}
	return s
}

// routes is the daemon's HTTP surface, the same in every role: each route
// pattern and its handler.
var routes = []struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request)
}{
	{"POST /v1/jobs", (*Server).HandleSubmit},
	{"POST /v1/chunks", (*Server).handleChunk},
	{"GET /v1/jobs/{id}", (*Server).HandleJobStatus},
	{"GET /v1/jobs/{id}/profile", (*Server).HandleJobProfile},
	{"GET /v1/jobs/{id}/trace", (*Server).HandleJobTrace},
	{"GET /v1/profiles/{benchmark}", (*Server).handleFleetProfile},
	{"GET /v1/pgo/{benchmark}", (*Server).handlePGOExport},
	{"PUT /v1/profiles/{benchmark}", (*Server).handleFleetInstall},
	{"DELETE /v1/profiles/{benchmark}", (*Server).handleFleetDelete},
	{"GET /metrics", (*Server).handleMetrics},
	{"GET /healthz", (*Server).HandleHealthz},
}

// Endpoints lists every route New registers, in registration order.
// DESIGN.md §11 documents each one and internal/tools/docscheck keeps the
// two lists in sync.
var Endpoints = func() []string {
	out := make([]string, len(routes))
	for i, rt := range routes {
		out[i] = rt.pattern
	}
	return out
}()

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// handleChunk runs one cluster chunk in a single blocking call: the sub-job
// is queued like a job, so 429 backpressure and drain hold, and the answer
// follows once it settles. The caller giving up does not stop the chunk;
// its answer is simply dropped.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	j := s.newJob(fmt.Sprintf("chunk-%d", s.chunkSeq.Add(1)), req, s.runChunk)
	if !s.enqueue(w, j) {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	case <-s.runCtx.Done():
		// Close abandons queued work: no runner will settle this chunk.
		select {
		case <-j.done:
		default:
			WriteError(w, http.StatusServiceUnavailable, "server closed")
			return
		}
	}
	j.mu.Lock()
	st := ChunkStatus{State: j.state, Errors: j.errors}
	if j.result != nil {
		st.Steps = j.result.Steps
	}
	snap := j.snap
	j.mu.Unlock()
	st.Trace = j.span.Tree()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := json.NewEncoder(w).Encode(st); err != nil || snap == nil {
		return
	}
	cw := &countingWriter{w: w}
	snap.Encode(cw) //nolint:errcheck // client went away
	s.metrics.snapshotBytes.Observe(float64(cw.n))
}

func (s *Server) handleFleetProfile(w http.ResponseWriter, r *http.Request) {
	bench := r.PathValue("benchmark")
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	key, status, msg := SelectCell(r, bench, s.fleet)
	if status != 0 {
		WriteError(w, status, msg)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	s.fleet[key].Encode(cw) //nolint:errcheck // client went away
	s.metrics.snapshotBytes.Observe(float64(cw.n))
}

// SelectCell resolves which of fleet's cells for bench a profile read or
// PGO export addresses: its optional ?k= picks one, and ?iters= may name
// the two-iteration window and nothing else. The caller holds the lock
// guarding fleet. A zero status means success; otherwise status and msg
// carry the HTTP error to write: 400 for a malformed k or iters or a
// refused width, 404 when no cell matches, 409 when several cells exist
// and no ?k= picks one. The daemon and the cluster coordinator both answer
// through it.
func SelectCell[V any](r *http.Request, bench string, fleet map[profstore.CellKey]V) (profstore.CellKey, int, string) {
	q := r.URL.Query()
	if err := queryIters(q.Get("iters")); err != nil {
		return profstore.CellKey{}, http.StatusBadRequest, err.Error()
	}
	var ks []int
	for key := range fleet {
		if key.Bench == bench {
			ks = append(ks, key.K)
		}
	}
	if len(ks) == 0 {
		return profstore.CellKey{}, http.StatusNotFound, fmt.Sprintf("no fleet profile for %q", bench)
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil {
			return profstore.CellKey{}, http.StatusBadRequest, "malformed k"
		}
		key := profstore.CellKey{Bench: bench, K: k}
		if _, ok := fleet[key]; !ok {
			return profstore.CellKey{}, http.StatusNotFound,
				fmt.Sprintf("no fleet profile for %q matching the query", bench)
		}
		return key, 0, ""
	}
	if len(ks) > 1 {
		sort.Ints(ks)
		names := make([]string, len(ks))
		for i, k := range ks {
			names[i] = fmt.Sprintf("(k=%d)", k)
		}
		return profstore.CellKey{}, http.StatusConflict,
			fmt.Sprintf("fleet profiles exist at cells %s; select one with ?k=", strings.Join(names, " "))
	}
	return profstore.CellKey{Bench: bench, K: ks[0]}, 0, ""
}

// queryIters validates an optional ?iters= query value: absent or the
// two-iteration width.
func queryIters(v string) error {
	if v == "" {
		return nil
	}
	it, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("malformed iters")
	}
	return limits.Iters(it)
}

// handlePGOExport serves one fleet cell in pathprof's saved-run format —
// the exact bytes `pathprof -pgo` and pgo derivation accept — so a
// fleet-trained profile feeds the layout report without conversion.
// Cell addressing matches GET /v1/profiles/{benchmark} (SelectCell).
func (s *Server) handlePGOExport(w http.ResponseWriter, r *http.Request) {
	bench := r.PathValue("benchmark")
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	key, status, msg := SelectCell(r, bench, s.fleet)
	if status != 0 {
		WriteError(w, status, msg)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	core.SaveRun(cw, core.RunFromCounters(key.K, 2, s.fleet[key].Counters)) //nolint:errcheck // client went away
	s.metrics.snapshotBytes.Observe(float64(cw.n))
}

// handleFleetInstall replaces one fleet cell with the snapshot in the
// request body — the cluster coordinator's install/handoff path. The cell
// key is (benchmark from the path, k from the snapshot header);
// install is replacement, not merge, so a re-push after a lost update is
// self-healing rather than double-counting. A snapshot no job of the
// benchmark could fold into is refused with 400 (checkInstall), so a bad
// install cannot poison the cell's later folds.
func (s *Server) handleFleetInstall(w http.ResponseWriter, r *http.Request) {
	bench := r.PathValue("benchmark")
	if workload.ByName(bench) == nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown benchmark %q", bench))
		return
	}
	snap, err := merge.Decode(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "malformed snapshot: "+err.Error())
		return
	}
	if err := s.checkInstall(bench, snap); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("invalid snapshot for %s: %v", bench, err))
		return
	}
	key := profstore.CellKey{Bench: bench, K: snap.K}
	s.fleetMu.Lock()
	// Journal before publishing: an install the coordinator saw acked must
	// survive a restart, and holding fleetMu across both keeps the served
	// map and the log applying installs in the same order.
	if s.cfg.Persist != nil {
		if err := s.cfg.Persist.Install(bench, snap); err != nil {
			s.fleetMu.Unlock()
			WriteError(w, http.StatusInternalServerError, "persisting install: "+err.Error())
			return
		}
	}
	s.fleet[key] = snap
	s.fleetMu.Unlock()
	s.metrics.fleetInstalls.Add(1)
	s.log.Debug("fleet.install", "benchmark", bench, "k", snap.K, "mass", snap.Mass())
	w.WriteHeader(http.StatusNoContent)
}

// checkInstall validates a snapshot installed for bench against the
// benchmark's program, resolved through the cached per-benchmark pipeline:
// its function count must be the program's and k in [-1, the program's
// maximum degree] (jobs clamp k to it) — the cells a job of the benchmark
// can fold into — and every record must name
// functions, loops, call sites and Ball-Larus paths the program has
// (profile.Info.CheckRecords), so the cell's profile and PGO exports stay
// readable.
func (s *Server) checkInstall(bench string, snap *merge.Snapshot) error {
	p, err := s.pipelineFor(JobRequest{Benchmark: bench})
	if err != nil {
		return err
	}
	if n := len(p.Info.Funcs); snap.NumFuncs != n {
		return fmt.Errorf("snapshot carries %d functions, the program has %d", snap.NumFuncs, n)
	}
	if err := limits.K(snap.K); err != nil {
		return err
	}
	if max := p.Info.MaxDegree(); snap.K > max {
		return fmt.Errorf("k=%d is above the program's maximum degree %d", snap.K, max)
	}
	return p.Info.CheckRecords(snap.Counters)
}

// handleFleetDelete drops one fleet cell (?k= selects it; ?iters= may name
// only the two-iteration window) — how a coordinator retires a cell from
// its previous owner after a ring handoff. Deleting an absent cell is a
// no-op 204, so retried handoffs stay idempotent.
func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "malformed or missing k")
		return
	}
	if err := queryIters(r.URL.Query().Get("iters")); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := profstore.CellKey{Bench: r.PathValue("benchmark"), K: k}
	s.fleetMu.Lock()
	if s.cfg.Persist != nil {
		if err := s.cfg.Persist.Delete(key.Bench, k); err != nil {
			s.fleetMu.Unlock()
			WriteError(w, http.StatusInternalServerError, "persisting delete: "+err.Error())
			return
		}
	}
	delete(s.fleet, key)
	s.fleetMu.Unlock()
	s.log.Debug("fleet.delete", "benchmark", key.Bench, "k", k)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) pool() *pipeline.Pool {
	if s.cfg.Pool != nil {
		return s.cfg.Pool
	}
	return pipeline.Shared()
}

// merged is the outcome of a job's shard fan-out and merge.
type merged struct {
	p    *pipeline.Pipeline
	snap *merge.Snapshot
	// res holds every result field but the flow estimate's.
	res JobResult
}

// runJob runs a job admitted by POST /v1/jobs: the shared fan-out and
// merge, then the job tail.
func (s *Server) runJob(ctx context.Context, j *Job) {
	if m := s.fanOut(ctx, j); m != nil {
		s.jobTail(j, m)
	}
}

// runChunk runs a chunk admitted by POST /v1/chunks: the shared fan-out and
// merge only. The chunk's answer is its only consumer, and the coordinator
// that sent it estimates, persists and folds the whole job itself, so a
// chunk is neither estimated, persisted, folded into the fleet nor kept.
func (s *Server) runChunk(ctx context.Context, j *Job) {
	if m := s.fanOut(ctx, j); m != nil {
		j.Done(&m.res, m.snap)
	}
}

// fanOut is the part every job and chunk runs: resolve the program's
// pipeline, fan the shards out over the worker pool, and merge the shard
// snapshots. It marks the job failed and returns nil on any failure. Every
// stage transition is recorded three ways — a span on the job's trace
// tree, an observation in the stage's /metrics histogram, and a structured
// log event — per DESIGN.md §12.
func (s *Server) fanOut(ctx context.Context, j *Job) *merged {
	s.metrics.queueWaitMs.Observe(float64(j.queueSpan.Duration()) / float64(time.Millisecond))
	p, k := j.Resolve(StageResolve)
	if p == nil {
		return nil
	}
	cfg := instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}

	// Fan the shards out; each holds one pool slot while executing. Shard
	// errors carry the shard index both structurally (ShardError.Shard)
	// and in the wrapped error text, so a step-limit blowup in shard 7 of
	// 32 is attributable at a glance. The shard span covers pool wait +
	// execution; its execute child covers only the instrumented run, and
	// only the latter feeds the shard_execute_ms histogram.
	type shardOut struct {
		snap  *merge.Snapshot
		steps int64
		err   error
	}
	outs := make([]shardOut, j.req.Shards)
	var wg sync.WaitGroup
	for i := 0; i < j.req.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shardSpan := j.span.Child(StageShard)
			shardSpan.SetAttr("shard", strconv.Itoa(i))
			defer shardSpan.End()
			perr := s.pool().DoCtx(ctx, func() {
				execSpan := shardSpan.Child(StageExecute)
				run, rerr := p.Execute(cfg, j.req.Seed+uint64(i), nil)
				execSpan.End()
				s.metrics.shardExecuteMs.Observe(float64(execSpan.Duration()) / float64(time.Millisecond))
				s.metrics.shardsRun.Add(1)
				if rerr != nil {
					outs[i].err = fmt.Errorf("shard %d: %w", i, rerr)
					return
				}
				outs[i].snap = merge.New(k, 2, run.Counters)
				outs[i].steps = run.Steps
			})
			if perr != nil {
				outs[i].err = fmt.Errorf("shard %d: %w", i, perr)
			}
			if outs[i].err != nil {
				s.log.Warn("job.shard.failed", "job_id", j.id, "shard", i, "error", outs[i].err.Error())
			} else {
				s.log.Debug("job.shard.done", "job_id", j.id, "shard", i, "steps", outs[i].steps)
			}
			j.mu.Lock()
			j.shardsDone++
			j.mu.Unlock()
		}(i)
	}
	wg.Wait()

	var snaps []*merge.Snapshot
	var steps int64
	var shardErrs []ShardError
	for i, o := range outs {
		if o.err != nil {
			shardErrs = append(shardErrs, ShardError{Shard: i, Error: o.err.Error()})
			continue
		}
		snaps = append(snaps, o.snap)
		steps += o.steps
	}
	if len(shardErrs) > 0 {
		s.metrics.shardErrors.Add(int64(len(shardErrs)))
		j.FailShards(shardErrs)
		return nil
	}

	mergeSpan := j.span.Child(StageMerge)
	snap, err := merge.MergeAll(snaps...)
	mergeSpan.End()
	mergeNs := mergeSpan.Duration().Nanoseconds()
	if err != nil {
		j.Fail("merging shard snapshots: " + err.Error())
		return nil
	}
	s.metrics.merges.Add(1)
	s.metrics.mergeMs.Observe(float64(mergeNs) / float64(time.Millisecond))
	s.log.Debug("job.merge", "job_id", j.id, "snapshots", len(snaps), "mass", snap.Mass())
	return &merged{p: p, snap: snap, res: JobResult{
		Funcs: snap.NumFuncs, MaxDegree: p.Info.MaxDegree(), K: k, Iters: 2,
		Steps: steps, Mass: snap.Mass(), MergeNs: mergeNs,
	}}
}

// failFold fails a job whose snapshot cannot fold into fleet cell key,
// naming the cell, and counts it on fleet_fold_errors.
func (s *Server) failFold(j *Job, key profstore.CellKey, err error) {
	s.metrics.foldErrors.Add(1)
	j.Fail(fmt.Sprintf("folding into fleet cell %s: %v", key, err))
}

// jobTail finishes a merged job: estimate flows over the merged profile,
// journal the snapshot when the daemon persists, and fold it into the fleet
// profile of the job's benchmark.
func (s *Server) jobTail(j *Job, m *merged) {
	snap, res := m.snap, m.res
	estSpan := j.span.Child(StageEstimate)
	err := res.Estimate(m.p, snap)
	estSpan.End()
	s.metrics.estimateMs.Observe(float64(estSpan.Duration()) / float64(time.Millisecond))
	if err != nil {
		j.Fail(err.Error())
		return
	}
	s.log.Debug("job.estimate", "job_id", j.id, "k", res.K)

	if j.req.Benchmark != "" && !s.cfg.FleetIngestOnly {
		key := profstore.CellKey{Bench: j.req.Benchmark, K: res.K}
		// A cell the snapshot cannot fold into fails the job, naming the
		// cell, before anything is journaled: a done job's mass is in its
		// cell.
		s.fleetMu.Lock()
		var ferr error
		if f := s.fleet[key]; f != nil {
			ferr = f.Compatible(snap)
		}
		s.fleetMu.Unlock()
		if ferr != nil {
			s.failFold(j, key, ferr)
			return
		}
		// Durability before ack: the snapshot is journaled (and fsync'd)
		// first, so a job observed as done has already survived kill -9.
		// A failed append fails the job rather than acking mass the store
		// cannot replay.
		if s.cfg.Persist != nil {
			persistSpan := j.span.Child(StagePersist)
			perr := s.cfg.Persist.Append(j.req.Benchmark, snap)
			persistSpan.End()
			s.metrics.persistMs.Observe(float64(persistSpan.Duration()) / float64(time.Millisecond))
			if perr != nil {
				j.Fail("persisting snapshot: " + perr.Error())
				return
			}
			s.log.Debug("job.persist", "job_id", j.id, "benchmark", j.req.Benchmark,
				"persist_ms", persistSpan.Duration().Milliseconds())
		}
		s.fleetMu.Lock()
		if f := s.fleet[key]; f == nil {
			s.fleet[key] = snap.Clone()
		} else {
			ferr = f.Merge(snap)
		}
		s.fleetMu.Unlock()
		if ferr != nil {
			s.failFold(j, key, ferr)
			return
		}
	}

	j.Done(&res, snap)
}
