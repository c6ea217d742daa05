// Command pathprofd is the profile aggregation daemon: an HTTP service that
// accepts profiling jobs, shards them across the pipeline worker pool, and
// serves merged per-job and fleet-wide profiles. See internal/server for the
// API; cmd/profload is the matching load generator.
//
// -mode selects the deployment role (DESIGN.md §14, docs/OPERATIONS.md):
//
//	standalone   one self-contained daemon (the default)
//	worker       a cluster serving node: executes sub-jobs, holds the fleet
//	             cells a coordinator installs on it, never self-folds
//	coordinator  the cluster front door: consistent-hash-shards fleet cells
//	             across the -workers ring, fans job chunks out with
//	             least-loaded dispatch and retry, owns the authoritative fold
//
// SIGTERM/SIGINT triggers a graceful drain: new jobs are refused with 503,
// every already-accepted job completes and folds into its fleet profile, and
// only then does the listener shut down.
//
// Observability (DESIGN.md §12, docs/OPERATIONS.md): structured logs go to
// stderr at -log-level; -debug-addr starts a second, private listener
// serving /debug/pprof/ for live CPU/heap/goroutine profiling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pathprof/internal/cluster"
	"pathprof/internal/obs"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/profstore"
	"pathprof/internal/server"
)

// parseLevel maps a -log-level flag value to a slog level.
func parseLevel(s string) (slog.Level, bool) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, true
	case "info":
		return slog.LevelInfo, true
	case "warn":
		return slog.LevelWarn, true
	case "error":
		return slog.LevelError, true
	}
	return 0, false
}

func main() {
	addr := flag.String("addr", "localhost:7422", "listen address")
	mode := flag.String("mode", "standalone", "deployment role: standalone|worker|coordinator")
	workers := flag.String("workers", "", "comma-separated worker base URLs (coordinator mode; more can join via POST /v1/cluster/join)")
	queueCap := flag.Int("queue", 256, "job queue capacity (full queue rejects with 429)")
	runners := flag.Int("runners", 0, "concurrent job executors (0 = GOMAXPROCS)")
	storeNm := flag.String("store", "arena", "counter store layout: arena|nested")
	parallel := flag.Int("parallel", 0, "shard worker pool size (0 = GOMAXPROCS)")
	maxSteps := flag.Int64("max-steps", 0, "per-shard VM step limit (0 = engine default)")
	maxShards := flag.Int("max-shards", 64, "largest accepted per-job shard count")
	chunkShards := flag.Int("chunk-shards", 1, "shards per dispatched sub-job (coordinator mode)")
	maxAttempts := flag.Int("max-attempts", 4, "dispatch attempts per chunk before the job fails (coordinator mode)")
	attemptTimeout := flag.Duration("attempt-timeout", 30*time.Second, "per-dispatch-attempt budget (coordinator mode)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job wall-clock budget")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-HTTP-request handler budget")
	drainWait := flag.Duration("drain-timeout", time.Minute, "how long shutdown waits for in-flight jobs")
	logLevel := flag.String("log-level", "info", "structured log level: debug|info|warn|error")
	debugAddr := flag.String("debug-addr", "", "private /debug/pprof listener address (empty = disabled)")
	dataDir := flag.String("data-dir", "", "persistent profile store directory (empty = in-memory only; docs/FORMAT.md documents the layout)")
	maxLogSegments := flag.Int("max-log-segments", 0, "sealed log segments kept before background compaction (0 = default; needs -data-dir)")
	decayShift := flag.Int("decay-shift", 0, "per-compaction exponential decay of base profiles, counters >>= shift (0 = no decay; needs -data-dir)")
	flag.Parse()

	store, ok := profile.ParseStoreKind(*storeNm)
	if !ok {
		fmt.Fprintf(os.Stderr, "pathprofd: unknown store %q (want arena|nested)\n", *storeNm)
		os.Exit(2)
	}
	level, ok := parseLevel(*logLevel)
	if !ok {
		fmt.Fprintf(os.Stderr, "pathprofd: unknown log level %q (want debug|info|warn|error)\n", *logLevel)
		os.Exit(2)
	}
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	obs.SetLogger(lg) // pipeline/regvm/merge debug events flow to the same stream
	pipeline.SetParallelism(*parallel)

	// The persistent profile store opens before the serving layer so its
	// crash-recovery replay happens exactly once, up front; every recovered
	// blame is logged here where an operator will see it on boot.
	var persist *profstore.Store
	if *dataDir != "" {
		st, err := profstore.Open(*dataDir, profstore.Config{
			MaxSegments: *maxLogSegments,
			DecayShift:  uint(*decayShift),
			Logger:      lg,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pathprofd: opening profile store %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		persist = st
		defer persist.Close() //nolint:errcheck // post-drain teardown
		m := persist.MetricsSnapshot()
		lg.Info("store.open", "dir", *dataDir, "cells", m.Cells,
			"segments", m.Segments, "log_bytes", m.LogBytes)
		for _, c := range persist.Corruptions() {
			lg.Warn("store.corrupt_record", "blame", c.String())
		}
	}

	// All three roles expose the same job API; they differ in who executes
	// and who folds.
	var (
		handler http.Handler
		drain   func(context.Context) error
		closeFn func()
	)
	switch *mode {
	case "standalone", "worker":
		srv := server.New(server.Config{
			QueueCap:  *queueCap,
			Runners:   *runners,
			MaxShards: *maxShards,
			Store:     store,
			MaxSteps:  *maxSteps,
			// A worker's fleet cells are installed by its coordinator;
			// self-folding job results would add mass it never folded.
			FleetIngestOnly: *mode == "worker",
			JobTimeout:      *jobTimeout,
			Logger:          lg,
			Persist:         persist,
		})
		srv.Start()
		handler, drain, closeFn = srv.Handler(), srv.Drain, srv.Close
	case "coordinator":
		var members []string
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(strings.TrimRight(w, "/")); w != "" {
				members = append(members, w)
			}
		}
		coord := cluster.New(cluster.Config{
			Workers:        members,
			QueueCap:       *queueCap,
			Runners:        *runners,
			MaxShards:      *maxShards,
			ChunkShards:    *chunkShards,
			MaxAttempts:    *maxAttempts,
			AttemptTimeout: *attemptTimeout,
			JobTimeout:     *jobTimeout,
			Logger:         lg,
			Persist:        persist,
		})
		coord.Start()
		handler, drain, closeFn = coord.Handler(), coord.Drain, coord.Close
		lg.Info("cluster.members", "workers", coord.Workers())
	default:
		fmt.Fprintf(os.Stderr, "pathprofd: unknown mode %q (want standalone|worker|coordinator)\n", *mode)
		os.Exit(2)
	}

	if *debugAddr != "" {
		dbg := &http.Server{Addr: *debugAddr, Handler: obs.DebugMux()}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				lg.Warn("debug.listener.failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
		defer dbg.Close()
		lg.Info("debug.listening", "addr", *debugAddr)
	}

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      http.TimeoutHandler(handler, *reqTimeout, "request timed out\n"),
		ReadTimeout:  *reqTimeout,
		WriteTimeout: 2 * *reqTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	lg.Info("listening", "addr", *addr, "mode", *mode, "store", store.String(), "queue", *queueCap)

	select {
	case err := <-errc:
		lg.Error("serve.failed", "error", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	lg.Info("draining", "timeout", drainWait.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := drain(dctx); err != nil {
		lg.Warn("drain.incomplete", "error", err.Error())
	} else {
		lg.Info("drained")
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		lg.Warn("http.shutdown.failed", "error", err.Error())
	}
	closeFn()
}
