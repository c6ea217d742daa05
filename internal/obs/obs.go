// Package obs is the repository's dependency-light observability layer:
// structured logging, in-process tracing spans, and fixed-boundary
// histograms, built entirely on the standard library.
//
// The three instruments and how the rest of the repo uses them:
//
//   - Structured logging (log/slog). One process-wide *slog.Logger
//     (Logger/SetLogger) that every library package — pipeline, regvm, merge —
//     writes through at Debug level on its hot-path boundaries, and that the
//     pathprofd daemon points at stderr. The default logger discards
//     everything, so library users pay one atomic load + one Enabled check
//     per event until they opt in. CaptureHandler records events for tests,
//     which is how the documented log keys and their ordering are asserted.
//
//   - Tracing spans (Span). A Span is a named monotonic start/end interval
//     with parent links and concurrency-safe child registration. The server
//     hangs one span tree off every job (queue → resolve → shard/execute →
//     merge → estimate, the taxonomy in DESIGN.md §12), serves it on
//     GET /v1/jobs/{id}/trace, and the CLIs render the same trees textually
//     behind their -trace flags.
//
//   - Histograms (Histogram). Fixed-boundary counting histograms with
//     lock-free Observe and a mergeable, quantile-estimating Snapshot —
//     the latency/size distributions behind /metrics (queue wait, shard
//     execute, merge, estimate, snapshot bytes) that the load generator
//     folds into BENCH_server.json as per-stage p50/p95/p99.
//
// DebugMux exposes net/http/pprof on an opt-in mux (pathprofd -debug-addr)
// without touching http.DefaultServeMux.
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// discardHandler is a slog.Handler that drops everything. (slog gained a
// built-in DiscardHandler only in Go 1.24; this module targets 1.22.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// defaultLogger holds the process-wide logger. It starts as a discard
// logger so importing obs never changes a program's output.
var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	defaultLogger.Store(slog.New(discardHandler{}))
}

// Logger returns the process-wide observability logger. Library packages
// (pipeline, regvm, merge) log through it at Debug level; it discards until
// SetLogger installs a real handler.
func Logger() *slog.Logger {
	return defaultLogger.Load()
}

// SetLogger installs l as the process-wide observability logger. A nil l
// restores the discarding default. Safe for concurrent use with Logger.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(discardHandler{})
	}
	defaultLogger.Store(l)
}

// DebugEnabled reports whether the process-wide logger currently accepts
// Debug records — the gate hot paths use before computing attribute values.
func DebugEnabled() bool {
	return Logger().Enabled(context.Background(), slog.LevelDebug)
}
