package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"pathprof/internal/cluster"
	"pathprof/internal/obs"
	"pathprof/internal/profstore"
	"pathprof/internal/server"
)

// pollEvery is the fixed cadence at which a submitter polls a job's
// status, well below the median job time of either service workload.
const pollEvery = time.Millisecond

// submitters is the number of closed-loop clients on the service workloads.
const submitters = 2

// quiet drops every log record; the daemons log each job transition.
func quiet() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
}

// listener serves h on a loopback port until closed.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener. Its daemon has drained, so no request is in
// flight; Close rather than Shutdown, which would wait up to five seconds
// for connections a client dialed but never used.
func (l *listener) close(context.Context) error {
	err := l.hs.Close()
	<-l.done
	return err
}

// service is a running in-process deployment: its base URL and how to stop
// it, in order, once every accepted job is done.
type service struct {
	url   string
	store *profstore.Store
	stop  []func(context.Context) error
}

func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, f := range s.stop {
		errs = append(errs, f(ctx))
	}
	return errors.Join(errs...)
}

// startFleet starts pathprofd with its fleet fold persisted to a profile
// store in dir with the default durability: fsync before every ack.
func startFleet(dir string) (*service, error) {
	st, err := profstore.Open(dir, profstore.Config{Logger: quiet()})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Persist: st, Logger: quiet()})
	srv.Start()
	l, err := serve(srv.Handler())
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	return &service{url: l.url, store: st, stop: []func(context.Context) error{
		srv.Drain, l.close,
		func(context.Context) error { srv.Close(); return st.Close() },
	}}, nil
}

// startCluster starts two ingest-only worker daemons and a coordinator over
// them whose fleet fold is checkpointed to a profile store in dir: the
// clustertest topology without its fault proxies.
func startCluster(dir string) (*service, error) {
	s := &service{}
	var urls []string
	for i := 0; i < 2; i++ {
		w := server.New(server.Config{FleetIngestOnly: true, Logger: quiet()})
		w.Start()
		l, err := serve(w.Handler())
		if err != nil {
			w.Close()
			s.close() //nolint:errcheck // already failing
			return nil, err
		}
		urls = append(urls, l.url)
		// Workers stop after the coordinator: stops run in reverse order of
		// start, so prepend.
		s.stop = append([]func(context.Context) error{
			w.Drain, l.close, func(context.Context) error { w.Close(); return nil },
		}, s.stop...)
	}
	st, err := profstore.Open(dir, profstore.Config{Logger: quiet()})
	if err != nil {
		s.close() //nolint:errcheck // already failing
		return nil, err
	}
	co := cluster.New(cluster.Config{
		Workers: urls,
		Client:  &http.Client{Timeout: 30 * time.Second},
		Logger:  quiet(),
		Persist: st,
	})
	co.Start()
	l, err := serve(co.Handler())
	if err != nil {
		co.Close()
		st.Close()
		s.close() //nolint:errcheck // already failing
		return nil, err
	}
	s.url, s.store = l.url, st
	s.stop = append([]func(context.Context) error{
		co.Drain, l.close, func(context.Context) error { co.Close(); return st.Close() },
	}, s.stop...)
	return s, nil
}

// client drives a service's HTTP API.
type client struct {
	base string
	http *http.Client
}

// submit posts one job and returns its id.
func (c *client) submit(req server.JobRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		// 429 and 503 are refusals; they count as failed ops like any error.
		return "", fmt.Errorf("submit: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return out.ID, nil
}

// get fetches path and returns the body of a 200 response.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, data)
	}
	return data, nil
}

// wait polls job id on a fixed schedule — every pollEvery from since,
// skipping ticks a slow poll overran — until it settles; it returns the
// final status and the number of polls.
func (c *client) wait(id string, since time.Time) (*server.JobStatus, int, error) {
	for n := 1; ; n++ {
		tick := time.Since(since)/pollEvery + 1
		time.Sleep(time.Until(since.Add(tick * pollEvery)))
		data, err := c.get("/v1/jobs/" + id)
		if err != nil {
			return nil, n, err
		}
		var st server.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, n, err
		}
		if st.State == "done" || st.State == "failed" {
			return &st, n, nil
		}
	}
}

// jobTree fetches a settled job's span tree.
func (c *client) jobTree(id string) (*obs.SpanNode, error) {
	data, err := c.get("/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	var t server.JobTrace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	return t.Root, nil
}

// submitterOut is one submitter's share of a service run.
type submitterOut struct {
	jobMs, readMs, submitMs  []float64
	input                    []int
	traced                   []bool
	polls, attempted, failed int
	readBytes                int64
	errs                     []string
}

// jobLoop runs one service workload: submitters closed-loop clients, each
// submitting its ops' jobs, polling each to done and, on fleet, reading a
// fleet cell after each job. Job results are checked against want and
// read bodies are decoded.
func jobLoop(c *config, svc *service, progs []*program, ops [][]jobOp,
	want map[[2]uint64]jobWant, rec *recorder) (*result, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * submitters}
	defer tr.CloseIdleConnections()
	cli := &client{base: svc.url, http: &http.Client{Transport: tr, Timeout: time.Minute}}

	outs := make([]submitterOut, len(ops))
	start := time.Now()
	deadline := start.Add(c.seconds)
	var wg sync.WaitGroup
	for w := range ops {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			for i := 0; time.Now().Before(deadline); i++ {
				in, traced := pick(i, rec != nil)
				op := ops[w][in%len(ops[w])]
				p := progs[op.Prog]
				var r *recorder
				if traced {
					r = rec
				}
				id := i*len(ops) + w
				root := r.begin(id, "op", "", -1)
				t0 := time.Now()
				o.attempted++
				jid, err := cli.submit(server.JobRequest{Benchmark: p.name, Seed: op.Seed, K: p.k, Iters: 2, Shards: jobShards})
				sub := time.Since(t0)
				var st *server.JobStatus
				if err == nil {
					var polls int
					st, polls, err = cli.wait(jid, t0)
					o.polls += polls
				}
				d := time.Since(t0)
				r.end(root)
				if err == nil {
					err = checkJob(st, want[[2]uint64{uint64(op.Prog), op.Seed}])
				}
				if err != nil {
					o.failed++
					o.errs = append(o.errs, err.Error())
				} else {
					o.jobMs = append(o.jobMs, ms(d))
					o.input = append(o.input, in*len(ops)+w)
					o.submitMs = append(o.submitMs, ms(sub))
					o.traced = append(o.traced, r != nil)
					if r != nil {
						t, terr := cli.jobTree(jid)
						if terr != nil {
							o.errs = append(o.errs, terr.Error())
						}
						r.addTree(id, t)
					}
				}
				if op.Read == "" {
					continue
				}
				rp := progs[op.ReadProg]
				o.attempted++
				t1 := time.Now()
				body, err := cli.get(fmt.Sprintf("/v1/%s/%s?k=%d&iters=2", op.Read, rp.name, rp.k))
				if err == nil {
					err = checkRead(op.Read, body, rp.k)
				}
				rd := time.Since(t1)
				if err != nil {
					o.failed++
					o.errs = append(o.errs, err.Error())
					continue
				}
				o.readMs = append(o.readMs, ms(rd))
				o.readBytes += int64(len(body))
			}
		}(w)
	}
	wg.Wait()

	res := &result{elapsed: time.Since(start), rec: rec}
	var all submitterOut
	for _, o := range outs {
		res.opMs = append(res.opMs, o.jobMs...)
		res.input = append(res.input, o.input...)
		res.traced = append(res.traced, o.traced...)
		res.attempted += o.attempted
		res.failed += o.failed
		all.readMs = append(all.readMs, o.readMs...)
		all.submitMs = append(all.submitMs, o.submitMs...)
		all.polls += o.polls
		all.readBytes += o.readBytes
		for i, e := range o.errs {
			if i < 5 {
				res.notes = append(res.notes, "error: "+e)
			}
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("%d submitters, status polled every %v", submitters, pollEvery))
	if rec == nil {
		return res, nil
	}
	l := map[string]float64{}
	res.layers = l
	l["bench.poll_interval_ms"] = ms(pollEvery)
	l["server.submit_ms"] = mean(all.submitMs)
	l["server.polls_per_job"] = float64(all.polls) / float64(max(len(res.opMs), 1))
	if len(all.readMs) > 0 {
		l["server.read_ms_p50"] = quantile(all.readMs, 0.5)
		l["server.read_ms_p99"] = quantile(all.readMs, 0.99)
		l["server.snapshot_bytes"] = float64(all.readBytes) / float64(len(all.readMs))
	}
	if svc.store != nil {
		m := svc.store.MetricsSnapshot()
		l["profstore.records"] = float64(m.Records)
		l["profstore.log_bytes"] = float64(m.LogBytes)
		l["profstore.compactions"] = float64(m.Compactions)
	}
	return res, nil
}

// serviceRun is the shared body of fleet and cluster: references, the
// repeated set-up (start the deployment, run one warm-up job per program),
// the timed job loop on the last deployment, and its shutdown.
func serviceRun(c *config, name string, reads bool, start func(dir string) (*service, error),
	fold func(root *obs.SpanNode, into map[string]agg)) (*result, error) {
	progs, err := loadPrograms()
	if err != nil {
		return nil, err
	}
	ops := jobOps(c.seed, name, len(progs), submitters, opListLen/submitters, reads)
	want := map[[2]uint64]jobWant{}
	for _, list := range ops {
		for _, op := range list {
			key := [2]uint64{uint64(op.Prog), op.Seed}
			if _, ok := want[key]; ok {
				continue
			}
			if want[key], err = progs[op.Prog].job(op.Seed, jobShards); err != nil {
				return nil, err
			}
		}
	}

	var setupS []float64
	var svc *service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if svc, err = start(filepath.Join(c.scratch, fmt.Sprintf("store-%d", i))); err != nil {
			return nil, err
		}
		if err := warmUp(svc, progs); err != nil {
			svc.close() //nolint:errcheck // already failing
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var rec *recorder
	if c.trace {
		rec = newRecorder()
	}
	res, err := jobLoop(c, svc, progs, ops, want, rec)
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	if rec != nil {
		daemon := map[string]agg{}
		for _, t := range rec.trees {
			fold(t.Root, daemon)
		}
		for k, a := range daemon {
			res.layers[k] = a.mean()
		}
	}
	return res, nil
}

// warmUp runs one job per program to completion, so every program's
// pipeline and code are built and every fleet cell a read can ask for
// exists before timing starts.
func warmUp(svc *service, progs []*program) error {
	cli := &client{base: svc.url, http: &http.Client{Timeout: time.Minute}}
	defer cli.http.CloseIdleConnections()
	for _, p := range progs {
		t0 := time.Now()
		id, err := cli.submit(server.JobRequest{Benchmark: p.name, Seed: p.seed, K: p.k, Iters: 2, Shards: jobShards})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		st, _, err := cli.wait(id, t0)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", p.name, err)
		}
		if st.State != "done" {
			return fmt.Errorf("warm-up %s: job %s: %v", p.name, st.State, st.Errors)
		}
	}
	return nil
}

// fleet is the fleet workload.
func fleet(c *config) (*result, error) {
	return serviceRun(c, "fleet", true, startFleet, foldServerTrace)
}

// clusterJobs is the cluster workload.
func clusterJobs(c *config) (*result, error) {
	return serviceRun(c, "cluster", false, startCluster, foldClusterTrace)
}

// foldServerTrace folds one pathprofd job trace into per-stage means:
// per job for queue, resolve, merge, estimate and persist; per shard for
// execute and for the shard's wait (its span minus its execute span).
func foldServerTrace(root *obs.SpanNode, into map[string]agg) {
	for _, ch := range root.Children {
		d := float64(ch.DurationNs) / 1e6
		switch ch.Name {
		case server.StageQueue:
			add(into, "server.queue_ms", d)
		case server.StageResolve:
			add(into, "server.resolve_ms", d)
		case server.StageShard:
			var exec float64
			for _, g := range ch.Children {
				if g.Name == server.StageExecute {
					exec += float64(g.DurationNs) / 1e6
				}
			}
			add(into, "server.execute_ms", exec)
			add(into, "server.shard_wait_ms", d-exec)
		case server.StageMerge:
			add(into, "merge.merge_ms", d)
		case server.StageEstimate:
			add(into, "estimate.estimate_ms", d)
		case server.StagePersist:
			add(into, "profstore.persist_ms", d)
		}
	}
}

// foldClusterTrace folds one coordinator job trace into per-stage means:
// per job for queue, plan, estimate, fleet push and attempts per chunk; per
// chunk for the chunk's time. The fold span covers the whole fan-out, so the
// fold's own time is the part of it no chunk span covers.
func foldClusterTrace(root *obs.SpanNode, into map[string]agg) {
	var chunks [][2]int64
	var attempts int
	var fold *obs.SpanNode
	for _, ch := range root.Children {
		d := float64(ch.DurationNs) / 1e6
		switch ch.Name {
		case cluster.StageClusterQueue:
			add(into, "cluster.queue_ms", d)
		case cluster.StageClusterPlan:
			add(into, "cluster.plan_ms", d)
		case cluster.StageChunk:
			add(into, "cluster.chunk_ms", d)
			chunks = append(chunks, [2]int64{ch.StartNs, ch.StartNs + ch.DurationNs})
		case cluster.StageAttempt:
			attempts++
		case cluster.StageClusterFold:
			fold = ch
		case cluster.StageClusterEstimate:
			add(into, "estimate.estimate_ms", d)
		case cluster.StageFleetPush:
			add(into, "cluster.fleetpush_ms", d)
		}
	}
	if len(chunks) > 0 {
		add(into, "cluster.attempts_per_chunk", float64(attempts)/float64(len(chunks)))
	}
	if fold != nil {
		lo, hi := fold.StartNs, fold.StartNs+fold.DurationNs
		add(into, "cluster.fold_ms", float64(hi-lo-covered(lo, hi, chunks))/1e6)
	}
}
