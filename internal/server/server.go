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
//	                                 shards}; 202 {id} | 429 when the queue is
//	                                 full | 503 while draining
//	POST   /v1/chunks                run the same body as one cluster chunk and
//	                                 block until it settles; 200 with a status
//	                                 line (state, errors, steps, span tree) and,
//	                                 when done, the merged snapshot | 429 | 503
//	GET    /v1/jobs/{id}             job status, shard errors, result + estimate
//	GET    /v1/jobs/{id}/profile     the job's merged counter snapshot
//	GET    /v1/jobs/{id}/trace       the job's span tree
//	GET    /v1/profiles/{benchmark}  the fleet-wide merged snapshot (?k=N,
//	                                 ?iters=N when several cells exist)
//	GET    /v1/pgo/{benchmark}       the same cell exported in pathprof's
//	                                 saved-run format, ready for -pgo's
//	                                 layout report
//	PUT    /v1/profiles/{benchmark}  install (replace) a fleet cell
//	DELETE /v1/profiles/{benchmark}  drop a fleet cell (?k=N, ?iters=N)
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
// consumer.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
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
	"pathprof/internal/estimate"
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
	// Iters is the multi-iteration window width (default 2, the classic
	// two-iteration overlapping-path setting). Snapshots only merge — per
	// job and fleet-wide — within one width.
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
	// Iters is the profiled multi-iteration window width.
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

// job is the server-side record of one queued unit of work: a job admitted
// by POST /v1/jobs, or a chunk admitted by POST /v1/chunks.
type job struct {
	id  string
	req JobRequest
	// run is the admitting route's entry point, called by the runner that
	// dequeues the job: Server.runJob or Server.runChunk.
	run func(*job)
	// span is the root of the job's trace tree (stage taxonomy in
	// trace.go); queueSpan is its queue child, open from accept until a
	// runner dequeues the job.
	span      *obs.Span
	queueSpan *obs.Span

	mu         sync.Mutex
	state      string
	shardsDone int
	errors     []ShardError
	result     *JobResult
	snap       *merge.Snapshot
	done       chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Benchmark: j.req.Benchmark,
		K: j.req.K, Iters: j.req.Iters, Shards: j.req.Shards, ShardsDone: j.shardsDone,
		Errors: append([]ShardError(nil), j.errors...),
	}
	if j.result != nil {
		r := *j.result
		st.Result = &r
	}
	return st
}

// fleetKey identifies one fleet-wide merged profile: snapshots only merge
// within a (benchmark, degree, window width) cell.
type fleetKey struct {
	bench string
	k     int
	iters int
}

// pipeEntry is a singleflight slot for one program's pipeline.
type pipeEntry struct {
	once sync.Once
	p    *pipeline.Pipeline
	err  error
}

// Server is the aggregation daemon. Create with New, wire its Handler into
// an http.Server, call Start, and Drain before exit.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *job
	metrics Metrics
	log     *slog.Logger

	jobsMu  sync.RWMutex
	jobs    map[string]*job
	settled SettledJobs
	nextID  int
	// chunkSeq numbers chunks, which never enter the job table.
	chunkSeq atomic.Int64

	pipesMu sync.Mutex
	pipes   map[string]*pipeEntry

	fleetMu sync.Mutex
	fleet   map[fleetKey]*merge.Snapshot

	// drainMu serializes enqueue against the drain flip: once Drain holds
	// the write lock, every later submission observes accepting == false,
	// so the in-flight job WaitGroup can only shrink.
	drainMu   sync.RWMutex
	accepting bool
	jobWG     sync.WaitGroup

	runCtx    context.Context
	cancelRun context.CancelFunc
	runnerWG  sync.WaitGroup
}

// New builds a Server. Call Start to launch its job runners.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	lg := cfg.Logger
	if lg == nil {
		lg = obs.Logger()
	}
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *job, cfg.QueueCap),
		metrics:   newMetrics(),
		log:       lg,
		jobs:      map[string]*job{},
		pipes:     map[string]*pipeEntry{},
		fleet:     map[fleetKey]*merge.Snapshot{},
		accepting: true,
	}
	// Prime the fleet from the store's recovery replay: every cell the
	// previous process acked is served again, byte-identical (the merge
	// fold is associative and commutative, so the replayed order of the
	// log's records cannot change the bytes).
	if cfg.Persist != nil {
		for key, snap := range cfg.Persist.Cells() {
			s.fleet[fleetKey{bench: key.Bench, k: key.K, iters: key.Iters}] = snap
		}
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
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
	{"POST /v1/jobs", (*Server).handleSubmit},
	{"POST /v1/chunks", (*Server).handleChunk},
	{"GET /v1/jobs/{id}", (*Server).handleJobStatus},
	{"GET /v1/jobs/{id}/profile", (*Server).handleJobProfile},
	{"GET /v1/jobs/{id}/trace", (*Server).handleJobTrace},
	{"GET /v1/profiles/{benchmark}", (*Server).handleFleetProfile},
	{"GET /v1/pgo/{benchmark}", (*Server).handlePGOExport},
	{"PUT /v1/profiles/{benchmark}", (*Server).handleFleetInstall},
	{"DELETE /v1/profiles/{benchmark}", (*Server).handleFleetDelete},
	{"GET /metrics", (*Server).handleMetrics},
	{"GET /healthz", (*Server).handleHealthz},
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

// Start launches the runner goroutines.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Runners; i++ {
		s.runnerWG.Add(1)
		go func() {
			defer s.runnerWG.Done()
			for {
				select {
				case j := <-s.queue:
					s.process(j)
				case <-s.runCtx.Done():
					return
				}
			}
		}()
	}
}

// process runs one dequeued job or chunk to completion through the entry
// point of the route that admitted it.
func (s *Server) process(j *job) {
	s.metrics.jobsInFlight.Add(1)
	j.run(j)
	s.metrics.jobsInFlight.Add(-1)
	s.jobWG.Done()
}

// Drain stops accepting new jobs and chunks and waits until every accepted
// one — queued or running — has completed, or ctx expires. It does not stop
// the runners; call Close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.accepting = false
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the runner goroutines. Jobs and chunks still queued are
// abandoned (a chunk's blocked caller gets 503); Drain first for a
// loss-free shutdown.
func (s *Server) Close() {
	s.cancelRun()
	s.runnerWG.Wait()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.drainMu.RLock()
	accepting := s.accepting
	s.drainMu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !accepting {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

const maxRequestBody = 1 << 20

// decodeRequest reads and validates a POST /v1/jobs or POST /v1/chunks
// body, applying the shard and width defaults. It answers 400 and reports
// false on a bad request.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (JobRequest, bool) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job request: "+err.Error())
		return req, false
	}
	if (req.Benchmark == "") == (req.Source == "") {
		writeError(w, http.StatusBadRequest, "exactly one of benchmark or source is required")
		return req, false
	}
	if req.Benchmark != "" && workload.ByName(req.Benchmark) == nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown benchmark %q", req.Benchmark))
		return req, false
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	if req.Iters == 0 {
		req.Iters = 2
	}
	for _, err := range []error{
		limits.Shards(req.Shards, s.cfg.MaxShards),
		limits.K(req.K),
		limits.Iters(req.Iters),
	} {
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return req, false
		}
	}
	return req, true
}

// newJob builds a queued job record whose trace starts now, with its queue
// span open until a runner dequeues it.
func newJob(id string, req JobRequest, run func(*job)) *job {
	j := &job{id: id, req: req, run: run, state: "queued", done: make(chan struct{})}
	j.span = obs.NewSpan(StageJob)
	j.span.SetAttr("job_id", j.id)
	j.queueSpan = j.span.Child(StageQueue)
	return j
}

// enqueue puts j on the bounded queue, counting it into the drain
// WaitGroup. It answers 503 while draining and 429 when the queue is full,
// and reports whether j was accepted.
func (s *Server) enqueue(w http.ResponseWriter, j *job) bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if !s.accepting {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	// Add before the send: a runner may dequeue (and Done) the instant the
	// send succeeds.
	s.jobWG.Add(1)
	select {
	case s.queue <- j:
		s.metrics.jobsAccepted.Add(1)
		s.log.Info("job.accepted", "job_id", j.id, "benchmark", j.req.Benchmark,
			"k", j.req.K, "iters", j.req.Iters, "shards", j.req.Shards)
		return true
	default:
		s.jobWG.Done()
		s.metrics.jobsRejected.Add(1)
		s.log.Warn("job.rejected", "benchmark", j.req.Benchmark, "reason", "queue_full")
		writeError(w, http.StatusTooManyRequests, "job queue is full")
		return false
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	s.jobsMu.Lock()
	s.nextID++
	j := newJob(fmt.Sprintf("j-%d", s.nextID), req, s.runJob)
	s.jobs[j.id] = j
	s.jobsMu.Unlock()
	if !s.enqueue(w, j) {
		s.jobsMu.Lock()
		delete(s.jobs, j.id)
		s.jobsMu.Unlock()
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id})
}

// handleChunk runs one cluster chunk in a single blocking call: the sub-job
// is queued like a job, so 429 backpressure and drain hold, and the answer
// follows once it settles. The caller giving up does not stop the chunk;
// its answer is simply dropped.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	j := newJob(fmt.Sprintf("chunk-%d", s.chunkSeq.Add(1)), req, s.runChunk)
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
			writeError(w, http.StatusServiceUnavailable, "server closed")
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

func (s *Server) lookup(id string) *job {
	s.jobsMu.RLock()
	defer s.jobsMu.RUnlock()
	return s.jobs[id]
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	snap, state := j.snap, j.state
	j.mu.Unlock()
	if snap == nil {
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; no merged profile", state))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	snap.Encode(cw) //nolint:errcheck // client went away
	s.metrics.snapshotBytes.Observe(float64(cw.n))
}

func (s *Server) handleFleetProfile(w http.ResponseWriter, r *http.Request) {
	bench := r.PathValue("benchmark")
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	snap, _, status, msg := s.fleetCell(r, bench)
	if snap == nil {
		writeError(w, status, msg)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	snap.Encode(cw) //nolint:errcheck // client went away
	s.metrics.snapshotBytes.Observe(float64(cw.n))
}

// fleetCell resolves the single fleet cell for bench addressed by the
// request's optional ?k=/?iters= query. The caller holds fleetMu. A nil
// snapshot means no unique cell matched; status and msg then carry the
// HTTP error to write (400 malformed, 404 empty, 409 ambiguous).
func (s *Server) fleetCell(r *http.Request, bench string) (*merge.Snapshot, fleetKey, int, string) {
	var cells []fleetKey
	for key := range s.fleet {
		if key.bench == bench {
			cells = append(cells, key)
		}
	}
	if len(cells) == 0 {
		return nil, fleetKey{}, http.StatusNotFound, fmt.Sprintf("no fleet profile for %q", bench)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].k != cells[j].k {
			return cells[i].k < cells[j].k
		}
		return cells[i].iters < cells[j].iters
	})
	// The query may pin either axis; whatever remains ambiguous after
	// filtering is a 409, an empty remainder a 404.
	for _, axis := range []struct {
		name string
		get  func(fleetKey) int
	}{
		{"k", func(c fleetKey) int { return c.k }},
		{"iters", func(c fleetKey) int { return c.iters }},
	} {
		q := r.URL.Query().Get(axis.name)
		if q == "" {
			continue
		}
		v, err := strconv.Atoi(q)
		if err != nil {
			return nil, fleetKey{}, http.StatusBadRequest, "malformed " + axis.name
		}
		kept := cells[:0]
		for _, c := range cells {
			if axis.get(c) == v {
				kept = append(kept, c)
			}
		}
		cells = kept
	}
	if len(cells) == 0 {
		return nil, fleetKey{}, http.StatusNotFound,
			fmt.Sprintf("no fleet profile for %q matching the query", bench)
	}
	if len(cells) > 1 {
		names := make([]string, len(cells))
		for i, c := range cells {
			names[i] = fmt.Sprintf("(k=%d,iters=%d)", c.k, c.iters)
		}
		return nil, fleetKey{}, http.StatusConflict,
			fmt.Sprintf("fleet profiles exist at cells %s; select one with ?k= and ?iters=",
				strings.Join(names, " "))
	}
	return s.fleet[cells[0]], cells[0], 0, ""
}

// handlePGOExport serves one fleet cell in pathprof's saved-run format —
// the exact bytes `pathprof -pgo` and pgo derivation accept — so a
// fleet-trained profile feeds the layout report without conversion.
// Cell addressing matches GET /v1/profiles/{benchmark}: optional ?k= and
// ?iters= pin a cell, an empty match is 404, an ambiguous one 409.
func (s *Server) handlePGOExport(w http.ResponseWriter, r *http.Request) {
	bench := r.PathValue("benchmark")
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	snap, key, status, msg := s.fleetCell(r, bench)
	if snap == nil {
		writeError(w, status, msg)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	core.SaveRun(cw, core.RunFromCounters(key.k, key.iters, snap.Counters)) //nolint:errcheck // client went away
	s.metrics.snapshotBytes.Observe(float64(cw.n))
}

// handleFleetInstall replaces one fleet cell with the snapshot in the
// request body — the cluster coordinator's install/handoff path. The cell
// key is (benchmark from the path, k and iters from the snapshot header);
// install is replacement, not merge, so a re-push after a lost update is
// self-healing rather than double-counting.
func (s *Server) handleFleetInstall(w http.ResponseWriter, r *http.Request) {
	bench := r.PathValue("benchmark")
	snap, err := merge.Decode(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed snapshot: "+err.Error())
		return
	}
	key := fleetKey{bench: bench, k: snap.K, iters: snap.Iters}
	s.fleetMu.Lock()
	// Journal before publishing: an install the coordinator saw acked must
	// survive a restart, and holding fleetMu across both keeps the served
	// map and the log applying installs in the same order.
	if s.cfg.Persist != nil {
		if err := s.cfg.Persist.Install(bench, snap); err != nil {
			s.fleetMu.Unlock()
			writeError(w, http.StatusInternalServerError, "persisting install: "+err.Error())
			return
		}
	}
	s.fleet[key] = snap
	s.fleetMu.Unlock()
	s.metrics.fleetInstalls.Add(1)
	s.log.Debug("fleet.install", "benchmark", bench, "k", snap.K, "iters", snap.Iters, "mass", snap.Mass())
	w.WriteHeader(http.StatusNoContent)
}

// handleFleetDelete drops one fleet cell (?k= and ?iters= select it; iters
// defaults to the classic width 2) — how a coordinator retires a cell from
// its previous owner after a ring handoff. Deleting an absent cell is a
// no-op 204, so retried handoffs stay idempotent.
func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed or missing k")
		return
	}
	iters := 2
	if q := r.URL.Query().Get("iters"); q != "" {
		if iters, err = strconv.Atoi(q); err != nil {
			writeError(w, http.StatusBadRequest, "malformed iters")
			return
		}
	}
	key := fleetKey{bench: r.PathValue("benchmark"), k: k, iters: iters}
	s.fleetMu.Lock()
	if s.cfg.Persist != nil {
		if err := s.cfg.Persist.Delete(key.bench, k, iters); err != nil {
			s.fleetMu.Unlock()
			writeError(w, http.StatusInternalServerError, "persisting delete: "+err.Error())
			return
		}
	}
	delete(s.fleet, key)
	s.fleetMu.Unlock()
	s.log.Debug("fleet.delete", "benchmark", key.bench, "k", k, "iters", iters)
	w.WriteHeader(http.StatusNoContent)
}

// pipelineFor builds (at most once per program) the pipeline of a job's
// program. Benchmarks key by name; ad-hoc sources by content hash.
func (s *Server) pipelineFor(req JobRequest) (*pipeline.Pipeline, error) {
	key := "bench:" + req.Benchmark
	if req.Benchmark == "" {
		sum := sha256.Sum256([]byte(req.Source))
		key = "src:" + hex.EncodeToString(sum[:])
	}
	s.pipesMu.Lock()
	e := s.pipes[key]
	if e == nil {
		e = &pipeEntry{}
		s.pipes[key] = e
	}
	s.pipesMu.Unlock()
	e.once.Do(func() {
		opts := pipeline.Options{Store: s.cfg.Store, Engine: pipeline.EngineReg, MaxSteps: s.cfg.MaxSteps, Pool: s.pool()}
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
// merge, then the job tail. It then settles the job in the job table,
// forgetting the oldest settled job beyond MaxSettledJobs.
func (s *Server) runJob(j *job) {
	if m := s.fanOut(j); m != nil {
		s.jobTail(j, m)
	}
	j.finish()
	s.jobsMu.Lock()
	if old, ok := s.settled.Settle(j.id); ok {
		delete(s.jobs, old)
	}
	s.jobsMu.Unlock()
}

// runChunk runs a chunk admitted by POST /v1/chunks: the shared fan-out and
// merge only. The chunk's answer is its only consumer, and the coordinator
// that sent it estimates, persists and folds the whole job itself, so a
// chunk is neither estimated, persisted, folded into the fleet nor kept.
func (s *Server) runChunk(j *job) {
	if m := s.fanOut(j); m != nil {
		j.mu.Lock()
		j.state = "done"
		j.result = &m.res
		j.snap = m.snap
		j.mu.Unlock()
		s.metrics.jobsCompleted.Add(1)
		s.log.Info("job.done", "job_id", j.id, "steps", m.res.Steps, "mass", m.res.Mass,
			"duration_ms", j.span.Duration().Milliseconds())
	}
	j.finish()
}

// finish ends the job's trace and releases whoever waits on it.
func (j *job) finish() {
	j.span.End()
	close(j.done)
}

// fail marks the job failed with a job-level error.
func (s *Server) fail(j *job, msg string) {
	j.mu.Lock()
	j.state = "failed"
	j.errors = append(j.errors, ShardError{Shard: -1, Error: msg})
	j.mu.Unlock()
	s.metrics.jobsFailed.Add(1)
	s.log.Warn("job.failed", "job_id", j.id, "error", msg)
}

// fanOut is the part every job and chunk runs: resolve the program's
// pipeline, fan the shards out over the worker pool, and merge the shard
// snapshots. It marks the job failed and returns nil on any failure. Every
// stage transition is recorded three ways — a span on the job's trace
// tree, an observation in the stage's /metrics histogram, and a structured
// log event — per DESIGN.md §12.
func (s *Server) fanOut(j *job) *merged {
	j.queueSpan.End()
	queueWait := j.queueSpan.Duration()
	s.metrics.queueWaitMs.Observe(float64(queueWait) / float64(time.Millisecond))
	j.mu.Lock()
	j.state = "running"
	j.mu.Unlock()
	s.log.Info("job.start", "job_id", j.id, "queue_wait_ms", queueWait.Milliseconds())

	ctx, cancel := context.WithTimeout(s.runCtx, s.cfg.JobTimeout)
	defer cancel()

	resolveSpan := j.span.Child(StageResolve)
	p, err := s.pipelineFor(j.req)
	resolveSpan.End()
	if err != nil {
		s.fail(j, err.Error())
		return nil
	}
	k := j.req.K
	if max := p.Info.MaxDegree(); k > max {
		k = max
	}
	iters := j.req.Iters
	cfg := instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0, Iters: iters}

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
				outs[i].snap = merge.New(k, iters, run.Counters)
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
		j.mu.Lock()
		j.state = "failed"
		j.errors = append(j.errors, shardErrs...)
		j.mu.Unlock()
		s.metrics.jobsFailed.Add(1)
		s.log.Warn("job.failed", "job_id", j.id, "shard_errors", len(shardErrs))
		return nil
	}

	mergeSpan := j.span.Child(StageMerge)
	snap, err := merge.MergeAll(snaps...)
	mergeSpan.End()
	mergeNs := mergeSpan.Duration().Nanoseconds()
	if err != nil {
		s.fail(j, "merging shard snapshots: "+err.Error())
		return nil
	}
	s.metrics.merges.Add(1)
	s.metrics.mergeMs.Observe(float64(mergeNs) / float64(time.Millisecond))
	s.log.Debug("job.merge", "job_id", j.id, "snapshots", len(snaps), "mass", snap.Mass())
	return &merged{p: p, snap: snap, res: JobResult{
		Funcs: snap.NumFuncs, MaxDegree: p.Info.MaxDegree(), K: k, Iters: iters,
		Steps: steps, Mass: snap.Mass(), MergeNs: mergeNs,
	}}
}

// jobTail finishes a merged job: estimate flows over the merged profile,
// journal the snapshot when the daemon persists, and fold it into the fleet
// profile of the job's benchmark.
func (s *Server) jobTail(j *job, m *merged) {
	snap, res := m.snap, m.res
	estSpan := j.span.Child(StageEstimate)
	pe, err := core.FromPipeline(m.p).EstimateMode(core.RunFromCounters(res.K, res.Iters, snap.Counters), estimate.Paper)
	estSpan.End()
	s.metrics.estimateMs.Observe(float64(estSpan.Duration()) / float64(time.Millisecond))
	if err != nil {
		s.fail(j, "estimating flows: "+err.Error())
		return
	}
	s.log.Debug("job.estimate", "job_id", j.id, "k", res.K)
	res.Vars, res.Exact = pe.Counts()
	res.Definite, res.Potential, res.Skipped = pe.Definite(), pe.Potential(), pe.Skipped

	if j.req.Benchmark != "" && !s.cfg.FleetIngestOnly {
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
				s.fail(j, "persisting snapshot: "+perr.Error())
				return
			}
			s.log.Debug("job.persist", "job_id", j.id, "benchmark", j.req.Benchmark,
				"persist_ms", persistSpan.Duration().Milliseconds())
		}
		s.fleetMu.Lock()
		key := fleetKey{bench: j.req.Benchmark, k: res.K, iters: res.Iters}
		if f := s.fleet[key]; f == nil {
			s.fleet[key] = snap.Clone()
		} else {
			f.Merge(snap) //nolint:errcheck // same benchmark+k+iters cell is compatible by construction
		}
		s.fleetMu.Unlock()
	}

	j.mu.Lock()
	j.state = "done"
	j.result = &res
	j.snap = snap
	j.mu.Unlock()
	s.metrics.jobsCompleted.Add(1)
	j.span.End()
	s.log.Info("job.done", "job_id", j.id,
		"steps", res.Steps, "mass", res.Mass, "duration_ms", j.span.Duration().Milliseconds())
}
