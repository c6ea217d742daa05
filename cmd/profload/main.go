// Command profload is the fleet-style load generator for pathprofd: it
// hammers a running daemon with profiling jobs over the bundled workload
// benchmarks, retries 429 backpressure bounces (with jittered backoff, so
// concurrent submitters do not retry in lockstep), and writes a throughput +
// latency-percentile report (BENCH_server.json by convention).
//
// Typical two-terminal session:
//
//	pathprofd -addr localhost:7422
//	profload -addr http://localhost:7422 -n 64 -c 16 -out BENCH_server.json
//
// The same invocation drives a whole cluster — point -addr at a
// coordinator-mode pathprofd and the sweep fans out across its worker ring
// (the coordinator serves the identical job API; see DESIGN.md §14):
//
//	pathprofd -mode worker -addr localhost:7431
//	pathprofd -mode worker -addr localhost:7432
//	pathprofd -mode coordinator -addr localhost:7422 \
//	    -workers http://localhost:7431,http://localhost:7432
//	profload -addr http://localhost:7422 -n 64 -c 16
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pathprof/internal/server"
)

func main() {
	addr := flag.String("addr", "http://localhost:7422", "pathprofd base URL")
	n := flag.Int("n", 64, "total jobs to submit")
	c := flag.Int("c", 8, "concurrent submitters (offered concurrent-job load)")
	shards := flag.Int("shards", 4, "shards per job")
	k := flag.Int("k", 1, "degree of overlap per job")
	benches := flag.String("benchmarks", "", "comma-separated benchmark names (default: all)")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job submit-to-done budget")
	out := flag.String("out", "BENCH_server.json", "report path (- for stdout only)")
	flag.Parse()

	cfg := server.LoadConfig{
		BaseURL: strings.TrimRight(*addr, "/"), Jobs: *n, Concurrency: *c,
		Shards: *shards, K: *k, JobTimeout: *jobTimeout,
	}
	if *benches != "" {
		cfg.Benchmarks = strings.Split(*benches, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	rep, err := server.RunLoad(ctx, cfg)
	if err != nil {
		log.Fatalf("profload: %v", err)
	}

	raw, merr := json.MarshalIndent(rep, "", "  ")
	if merr != nil {
		log.Fatalf("profload: encoding report: %v", merr)
	}
	if *out != "-" {
		if werr := os.WriteFile(*out, append(raw, '\n'), 0o644); werr != nil {
			log.Fatalf("profload: writing %s: %v", *out, werr)
		}
	}
	fmt.Printf("%s\n", raw)
	fmt.Printf("profload: %d/%d jobs done in %.2fs — %.1f jobs/s, p50 %.1fms p95 %.1fms p99 %.1fms (%d rejections retried)\n",
		rep.Completed, rep.Jobs, rep.DurationSec, rep.JobsPerSec,
		rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms, rep.Rejected)
	for _, name := range server.HistogramMetricNames {
		st, ok := rep.Stages[name]
		if !ok {
			continue
		}
		fmt.Printf("profload:   %-18s n=%-5d mean=%-10.2f p50=%-10.2f p95=%-10.2f p99=%.2f\n",
			name, st.Count, st.Mean, st.P50, st.P95, st.P99)
	}
}
