package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"

	"pathprof/internal/core"
	"pathprof/internal/estimate"
	"pathprof/internal/limits"
	"pathprof/internal/merge"
	"pathprof/internal/obs"
	"pathprof/internal/pipeline"
	"pathprof/internal/workload"
)

// MaxSettledJobs is how many settled (done or failed) jobs a Front keeps
// addressable. Once more have settled, the oldest settled job is forgotten
// and its id answers 404 "no such job" on every /v1/jobs/{id} route, so
// the job table — each record holding its merged snapshot and span tree —
// stays bounded however many jobs the service runs. Queued and running
// jobs are never evicted.
const MaxSettledJobs = 1024

// Role is what sets one Front's jobs apart from another's: how they are
// named and how they run.
type Role struct {
	// Root and Queue are the span stages of a job's trace root and of its
	// queue wait.
	Root, Queue string
	// IDPrefix precedes each job's sequence number in its id.
	IDPrefix string
	// Log prefixes the job lifecycle events: Log+".accepted", ".rejected",
	// ".start", ".failed" and ".done".
	Log string
	// Noun names the owner in the 503 a draining Front answers.
	Noun string
	// Run runs a dequeued job under a context bounded by the job timeout,
	// and settles it with Job.Done, Job.Fail or Job.FailShards.
	Run func(ctx context.Context, j *Job)
	// Unavailable, when set, is asked once a submission validates: an
	// error refuses the submission with 503 and the error's text.
	Unavailable func() error
}

// Front is the job front-end a pathprofd daemon and a cluster coordinator
// share: the bounded queue and its runners, the job table with its
// MaxSettledJobs retention, drain, request validation, the per-program
// pipeline cache, and the POST /v1/jobs, GET /v1/jobs/{id}[/profile|/trace]
// and GET /healthz handlers. Its owner registers those handlers on its own
// mux, calls Start, and Drain then Close before exit.
type Front struct {
	cfg   Config
	role  Role
	log   *slog.Logger
	queue chan *Job
	// served, when set, observes the encoded size of each job profile
	// served.
	served *obs.Histogram

	jobsAccepted  atomic.Int64
	jobsRejected  atomic.Int64
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	jobsInFlight  atomic.Int64

	jobsMu sync.RWMutex
	jobs   map[string]*Job
	// settled holds the ids of settled jobs in the table, oldest first.
	settled []string
	nextID  int

	pipesMu sync.Mutex
	pipes   map[string]*pipeEntry

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

// pipeEntry is a singleflight slot for one program's pipeline.
type pipeEntry struct {
	once sync.Once
	p    *pipeline.Pipeline
	err  error
}

// NewFront builds a Front sized by cfg's QueueCap, Runners, MaxShards and
// JobTimeout, logging to cfg.Logger, whose program pipelines run with
// cfg's Store, MaxSteps and Pool; the rest of cfg is the daemon's own.
// Call Start to launch its runners.
func NewFront(cfg Config, role Role) *Front {
	cfg = cfg.withDefaults()
	f := &Front{
		cfg:       cfg,
		role:      role,
		log:       cfg.Logger,
		queue:     make(chan *Job, cfg.QueueCap),
		jobs:      map[string]*Job{},
		pipes:     map[string]*pipeEntry{},
		accepting: true,
	}
	f.runCtx, f.cancelRun = context.WithCancel(context.Background())
	return f
}

// Start launches the runner goroutines.
func (f *Front) Start() {
	for i := 0; i < f.cfg.Runners; i++ {
		f.runnerWG.Add(1)
		go func() {
			defer f.runnerWG.Done()
			for {
				select {
				case j := <-f.queue:
					f.process(j)
				case <-f.runCtx.Done():
					return
				}
			}
		}()
	}
}

// process runs one dequeued job to completion through its run function,
// then settles it in the job table, forgetting the oldest settled job
// beyond MaxSettledJobs.
func (f *Front) process(j *Job) {
	f.jobsInFlight.Add(1)
	j.queueSpan.End()
	j.mu.Lock()
	j.state = "running"
	j.mu.Unlock()
	f.log.Info(f.role.Log+".start", "job_id", j.id, "shards", j.req.Shards,
		"queue_wait_ms", j.queueSpan.Duration().Milliseconds())
	ctx, cancel := context.WithTimeout(f.runCtx, f.cfg.JobTimeout)
	j.run(ctx, j)
	cancel()
	j.span.End()
	close(j.done)
	if j.kept {
		f.jobsMu.Lock()
		f.settled = append(f.settled, j.id)
		if len(f.settled) > MaxSettledJobs {
			delete(f.jobs, f.settled[0])
			f.settled = f.settled[1:]
		}
		f.jobsMu.Unlock()
	}
	f.jobsInFlight.Add(-1)
	f.jobWG.Done()
}

// Drain stops accepting new work and waits until every accepted job —
// queued or running — has completed, or ctx expires. It does not stop the
// runners; call Close afterwards.
func (f *Front) Drain(ctx context.Context) error {
	f.drainMu.Lock()
	f.accepting = false
	f.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		f.jobWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the runner goroutines. Jobs still queued are abandoned (a
// daemon's queued chunk answers 503); Drain first for a loss-free shutdown.
func (f *Front) Close() {
	f.cancelRun()
	f.runnerWG.Wait()
}

// JobCounts is a Front's share of a /metrics payload.
type JobCounts struct {
	// Accepted counts submissions that entered the queue, Rejected those
	// a full queue bounced with 429.
	Accepted, Rejected int64
	// Completed and Failed count jobs settled done and failed.
	Completed, Failed int64
	// InFlight gauges jobs on a runner, QueueDepth jobs accepted but not
	// yet picked up.
	InFlight   int64
	QueueDepth int
}

// Counts reads the Front's job counters.
func (f *Front) Counts() JobCounts {
	return JobCounts{
		Accepted:   f.jobsAccepted.Load(),
		Rejected:   f.jobsRejected.Load(),
		Completed:  f.jobsCompleted.Load(),
		Failed:     f.jobsFailed.Load(),
		InFlight:   f.jobsInFlight.Load(),
		QueueDepth: len(f.queue),
	}
}

// HandleHealthz serves GET /healthz: "ok", or "draining" once Drain began.
func (f *Front) HandleHealthz(w http.ResponseWriter, _ *http.Request) {
	f.drainMu.RLock()
	accepting := f.accepting
	f.drainMu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !accepting {
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// DecodeBody decodes a JSON request body of at most 1 MiB into v.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v)
}

// decodeRequest reads and validates a POST /v1/jobs or POST /v1/chunks
// body, applying the shard and width defaults. It answers 400 with the
// first fault found and reports false on a bad request.
func (f *Front) decodeRequest(w http.ResponseWriter, r *http.Request) (JobRequest, bool) {
	var req JobRequest
	if err := DecodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "malformed job request: "+err.Error())
		return req, false
	}
	if (req.Benchmark == "") == (req.Source == "") {
		WriteError(w, http.StatusBadRequest, "exactly one of benchmark or source is required")
		return req, false
	}
	if req.Benchmark != "" && workload.ByName(req.Benchmark) == nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown benchmark %q", req.Benchmark))
		return req, false
	}
	if req.Shards == 0 {
		req.Shards = 1
	}
	for _, err := range []error{
		limits.Shards(req.Shards, f.cfg.MaxShards),
		limits.K(req.K),
		limits.Iters(req.Iters),
	} {
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return req, false
		}
	}
	req.Iters = 2
	return req, true
}

// newJob builds a queued job record whose trace starts now, with its queue
// span open until a runner dequeues it.
func (f *Front) newJob(id string, req JobRequest, run func(context.Context, *Job)) *Job {
	j := &Job{f: f, id: id, req: req, run: run, state: "queued", done: make(chan struct{})}
	j.span = obs.NewSpan(f.role.Root)
	j.span.SetAttr("job_id", j.id)
	j.queueSpan = j.span.Child(f.role.Queue)
	return j
}

// enqueue puts j on the bounded queue, counting it into the drain
// WaitGroup. It answers 503 while draining and 429 when the queue is full,
// and reports whether j was accepted.
func (f *Front) enqueue(w http.ResponseWriter, j *Job) bool {
	f.drainMu.RLock()
	defer f.drainMu.RUnlock()
	if !f.accepting {
		WriteError(w, http.StatusServiceUnavailable, f.role.Noun+" is draining")
		return false
	}
	// Add before the send: a runner may dequeue (and Done) the instant the
	// send succeeds.
	f.jobWG.Add(1)
	select {
	case f.queue <- j:
		f.jobsAccepted.Add(1)
		f.log.Info(f.role.Log+".accepted", "job_id", j.id, "benchmark", j.req.Benchmark,
			"k", j.req.K, "shards", j.req.Shards)
		return true
	default:
		f.jobWG.Done()
		f.jobsRejected.Add(1)
		f.log.Warn(f.role.Log+".rejected", "benchmark", j.req.Benchmark, "reason", "queue_full")
		WriteError(w, http.StatusTooManyRequests, "job queue is full")
		return false
	}
}

// HandleSubmit serves POST /v1/jobs: 202 {id}, 400 for a bad request, 503
// while the owner is unavailable or draining, 429 on a full queue.
func (f *Front) HandleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := f.decodeRequest(w, r)
	if !ok {
		return
	}
	if f.role.Unavailable != nil {
		if err := f.role.Unavailable(); err != nil {
			WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
	}
	f.jobsMu.Lock()
	f.nextID++
	j := f.newJob(fmt.Sprintf("%s%d", f.role.IDPrefix, f.nextID), req, f.role.Run)
	j.kept = true
	f.jobs[j.id] = j
	f.jobsMu.Unlock()
	if !f.enqueue(w, j) {
		f.jobsMu.Lock()
		delete(f.jobs, j.id)
		f.jobsMu.Unlock()
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]string{"id": j.id})
}

// lookup finds the job the request's {id} names, answering 404 when the
// table does not hold it.
func (f *Front) lookup(w http.ResponseWriter, r *http.Request) *Job {
	f.jobsMu.RLock()
	j := f.jobs[r.PathValue("id")]
	f.jobsMu.RUnlock()
	if j == nil {
		WriteError(w, http.StatusNotFound, "no such job")
	}
	return j
}

// HandleJobStatus serves GET /v1/jobs/{id}.
func (f *Front) HandleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := f.lookup(w, r); j != nil {
		WriteJSON(w, http.StatusOK, j.status())
	}
}

// HandleJobProfile serves GET /v1/jobs/{id}/profile: the job's merged
// snapshot, or 409 until the job is done.
func (f *Front) HandleJobProfile(w http.ResponseWriter, r *http.Request) {
	j := f.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	snap, state := j.snap, j.state
	j.mu.Unlock()
	if snap == nil {
		WriteError(w, http.StatusConflict, fmt.Sprintf("job is %s; no merged profile", state))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	snap.Encode(cw) //nolint:errcheck // client went away
	if f.served != nil {
		f.served.Observe(float64(cw.n))
	}
}

// HandleJobTrace serves GET /v1/jobs/{id}/trace: the job's span tree.
func (f *Front) HandleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := f.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	WriteJSON(w, http.StatusOK, JobTrace{ID: j.id, State: state, Root: j.span.Tree()})
}

// pipelineFor builds (at most once per program) the pipeline of a job's
// program. Benchmarks key by name; ad-hoc sources by content hash.
func (f *Front) pipelineFor(req JobRequest) (*pipeline.Pipeline, error) {
	key := "bench:" + req.Benchmark
	if req.Benchmark == "" {
		sum := sha256.Sum256([]byte(req.Source))
		key = "src:" + hex.EncodeToString(sum[:])
	}
	f.pipesMu.Lock()
	e := f.pipes[key]
	if e == nil {
		e = &pipeEntry{}
		f.pipes[key] = e
	}
	f.pipesMu.Unlock()
	e.once.Do(func() {
		opts := pipeline.Options{Store: f.cfg.Store, MaxSteps: f.cfg.MaxSteps, Pool: f.cfg.Pool}
		if req.Benchmark != "" {
			prog, err := workload.ByName(req.Benchmark).Compile()
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

// Job is one unit of work on a Front's queue: a job admitted by
// POST /v1/jobs or, on a daemon, a chunk admitted by POST /v1/chunks.
type Job struct {
	f   *Front
	id  string
	req JobRequest
	// run is the admitting route's entry point, called by the runner that
	// dequeues the job.
	run func(context.Context, *Job)
	// kept marks a job entered in the job table; chunks never are.
	kept bool
	// span is the root of the job's trace tree; queueSpan is its queue
	// child, open from accept until a runner dequeues the job.
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

// ID returns the job's id.
func (j *Job) ID() string { return j.id }

// Request returns the validated request the job runs.
func (j *Job) Request() JobRequest { return j.req }

// Span returns the root span of the job's trace.
func (j *Job) Span() *obs.Span { return j.span }

// AddShardsDone counts n more of the job's shards as finished.
func (j *Job) AddShardsDone(n int) {
	j.mu.Lock()
	j.shardsDone += n
	j.mu.Unlock()
}

func (j *Job) status() JobStatus {
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

// Resolve resolves the job's program pipeline through the Front's cache,
// under a span named stage, and returns it with the job's degree clamped to
// the program's maximum. When the program does not build it fails the job
// and returns nil.
func (j *Job) Resolve(stage string) (*pipeline.Pipeline, int) {
	span := j.span.Child(stage)
	p, err := j.f.pipelineFor(j.req)
	span.End()
	if err != nil {
		j.Fail(err.Error())
		return nil, 0
	}
	return p, min(j.req.K, p.Info.MaxDegree())
}

// Fail settles the job as failed with a job-level error.
func (j *Job) Fail(msg string) {
	j.settleFailed([]ShardError{{Shard: -1, Error: msg}}, "error", msg)
}

// FailShards settles the job as failed with per-shard errors.
func (j *Job) FailShards(errs []ShardError) {
	j.settleFailed(errs, "shard_errors", len(errs))
}

func (j *Job) settleFailed(errs []ShardError, attrs ...any) {
	j.mu.Lock()
	j.state = "failed"
	j.errors = append(j.errors, errs...)
	j.mu.Unlock()
	j.f.jobsFailed.Add(1)
	j.f.log.Warn(j.f.role.Log+".failed", append([]any{"job_id", j.id}, attrs...)...)
}

// Done settles the job as done with its result and merged snapshot.
func (j *Job) Done(res *JobResult, snap *merge.Snapshot) {
	j.mu.Lock()
	j.state = "done"
	j.result = res
	j.snap = snap
	j.mu.Unlock()
	j.f.jobsCompleted.Add(1)
	j.span.End()
	j.f.log.Info(j.f.role.Log+".done", "job_id", j.id, "steps", res.Steps, "mass", res.Mass,
		"duration_ms", j.span.Duration().Milliseconds())
}

// Estimate fills r's flow-estimate fields with the paper-mode estimate
// (Eqs. 1-18) over snap, a merged profile of p's program at degree r.K.
func (r *JobResult) Estimate(p *pipeline.Pipeline, snap *merge.Snapshot) error {
	pe, err := core.FromPipeline(p).EstimateMode(core.RunFromCounters(r.K, 2, snap.Counters), estimate.Paper)
	if err != nil {
		return fmt.Errorf("estimating flows: %w", err)
	}
	r.Vars, r.Exact = pe.Counts()
	r.Definite, r.Potential, r.Skipped = pe.Definite(), pe.Potential(), pe.Skipped
	return nil
}

// WriteJSON writes v as an indented JSON response body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response writer errors are the client's problem
}

// WriteError writes a JSON error envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}
