// Command perfbench is pathprof's end-to-end benchmark. It runs one named
// workload in a single process for a fixed time, checks every output
// against a reference the code under test did not produce, and prints each
// metric by name with its unit; the last line of its output is one JSON
// object with the results.
//
//	bash perfbench/run.sh --workload warm-runs --seed 1 --seconds 25 --trace 0
//
// run.sh builds the command into .bench_build from the checkout's sources;
// go test in this directory runs the benchmark's self-tests.
//
// Workloads (each is a closed loop):
//
//   - warm-runs: instrumented runs on nine warm core.Session values, each
//     followed by the same run uninstrumented. Probes, register-machine
//     dispatch and counter stores do the work.
//   - cold-sweep: every op builds a new pipeline from source text and runs
//     it at every degree, as cmd/experiments does. The frontend, analysis,
//     plan, compile, trace and estimate layers do the work.
//   - fleet: two submitters drive an in-process pathprofd with a durable
//     profile store: jobs, then a read of a fleet cell. Merge, estimate,
//     persist, the job queue and HTTP do the work.
//   - cluster: two submitters drive an in-process coordinator over two
//     ingest-only worker daemons. Chunk dispatch, the coordinator's fold and
//     fleet pushes do the work.
//
// With -trace 0 the result holds the end-to-end metrics. With -trace 1 it
// holds the per-layer metrics instead: every other op is wrapped in spans
// around the calls into each layer (and, on the services, folded with the
// daemons' own job traces), the spans are written to the scratch directory
// when the run ends, and the difference between traced and untraced ops is
// reported as the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pathprof/internal/workload"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// scratch holds the durable stores and the span files.
	scratch string
}

// result is what a workload measured.
type result struct {
	// setupS holds the duration of each repetition of the program's own
	// set-up, in seconds.
	setupS []float64
	// opMs holds the latency of every op that succeeded; input holds the
	// input each ran and traced marks the ops wrapped in spans.
	opMs   []float64
	input  []int
	traced []bool
	// attempted counts ops; failed those that errored, were refused or
	// failed their output check.
	attempted, failed int
	elapsed           time.Duration
	// layers holds the per-layer metrics (trace mode only).
	layers map[string]float64
	// rec holds the traced run's spans.
	rec *recorder
	// notes are printed before the result line.
	notes []string
}

// setupReps is how often each workload repeats its set-up; setup_s is the
// median.
const setupReps = 3

// metric is one reported quantity.
type metric struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports. The op is one
// instrumented run on warm-runs, one sweep on cold-sweep, and one job from
// submit until the client sees it done on fleet and cluster.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a traced run reports. Times are mean self
// time per traced op (per shard, chunk or program where the name says so).
func perLayer() []metric {
	ms := func(names ...string) []metric {
		var out []metric
		for _, n := range names {
			out = append(out, metric{n, "ms"})
		}
		return out
	}
	out := ms("lang.compile_ms", "profile.analyze_ms", "trace.trace_ms", "instrument.plan_ms",
		"regvm.compile_ms", "regvm.execute_ms", "regvm.bare_ms", "estimate.estimate_ms")
	out = append(out,
		metric{"probe.overhead_pct", "%"},
		metric{"overhead.bl_ops_pct", "%"},
		metric{"overhead.loop_ops_pct", "%"},
		metric{"overhead.inter_ops_pct", "%"},
		metric{"regvm.steps_per_us", "steps/us"},
		metric{"regvm.allocs_per_run", "count"},
		metric{"regvm.bytes_per_run", "B"},
		metric{"regvm.fused_instrs", "count"},
		metric{"estimate.vars", "count"},
		metric{"estimate.exact", "count"},
		metric{"estimate.skipped", "count"},
		metric{"sweep.residual_pct", "%"},
		metric{"pipeline.plans_cached", "count"},
		metric{"pipeline.codes_cached", "count"},
	)
	out = append(out, ms("server.queue_ms", "server.resolve_ms", "server.shard_wait_ms",
		"server.execute_ms", "merge.merge_ms", "profstore.persist_ms", "server.submit_ms",
		"server.read_ms_p50", "server.read_ms_p99")...)
	out = append(out,
		metric{"server.polls_per_job", "count"},
		metric{"server.snapshot_bytes", "B"},
		metric{"profstore.records", "count"},
		metric{"profstore.log_bytes", "B"},
		metric{"profstore.compactions", "count"},
	)
	out = append(out, ms("cluster.queue_ms", "cluster.plan_ms", "cluster.chunk_ms")...)
	out = append(out, metric{"cluster.attempts_per_chunk", "count"})
	out = append(out, ms("cluster.fold_ms", "cluster.fleetpush_ms", "bench.poll_interval_ms", "bench.op_ms_p99")...)
	out = append(out,
		metric{"bench.ops", "count"},
		metric{"bench.tracing_overhead_pct", "%"},
	)
	for _, b := range workload.All() {
		out = append(out,
			metric{"regvm.execute_ms." + b.Name, "ms"},
			metric{"regvm.bare_ms." + b.Name, "ms"},
			metric{"probe.overhead_pct." + b.Name, "%"},
			metric{"overhead.bl_ops_pct." + b.Name, "%"},
			metric{"overhead.loop_ops_pct." + b.Name, "%"},
			metric{"overhead.inter_ops_pct." + b.Name, "%"},
		)
	}
	return out
}

var workloads = map[string]func(*config) (*result, error){
	"warm-runs":  warmRuns,
	"cold-sweep": coldSweep,
	"fleet":      fleet,
	"cluster":    clusterJobs,
}

func main() { os.Exit(run()) }

func run() int {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: warm-runs, cold-sweep, fleet or cluster")
	flag.Uint64Var(&c.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&seconds, "seconds", 10, "how long the timed loop runs")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&c.scratch, "scratch", ".bench_build", "directory for stores and span files")
	flag.Parse()
	fn := workloads[c.workload]
	if fn == nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload warm-runs|cold-sweep|fleet|cluster -seed N -seconds N -trace 0|1")
		return 2
	}
	c.seconds = time.Duration(seconds) * time.Second
	c.trace = trace == 1
	scratch, err := os.MkdirTemp(c.scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	c.scratch = scratch

	res, err := fn(&c)
	if err == nil && res.attempted == 0 {
		err = fmt.Errorf("no op ran in %v", c.seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if res.rec != nil {
		path := filepath.Join(filepath.Dir(scratch), "traces", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
		if err := res.rec.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.notes = append(res.notes, "spans written to "+path)
	}
	report(&c, res)
	return 0
}

// pick maps the i-th op of a run to the input it runs and whether it is
// traced. An untraced run runs input i. A traced run runs every input twice
// in a row, once wrapped in spans and once not, the traced one first on
// every other pair, so traced and untraced ops see the same inputs.
func pick(i int, trace bool) (input int, traced bool) {
	if !trace {
		return i, false
	}
	return i / 2, i%2 == (i/2)%2
}

// tracingOverhead compares the traced and untraced ops of the inputs that
// ran both ways: 100·(Σ traced − Σ untraced) / Σ untraced.
func tracingOverhead(res *result) float64 {
	type pair struct {
		t, u   float64
		nt, nu int
	}
	pairs := map[int]*pair{}
	for i, d := range res.opMs {
		p := pairs[res.input[i]]
		if p == nil {
			p = &pair{}
			pairs[res.input[i]] = p
		}
		if res.traced[i] {
			p.t, p.nt = p.t+d, p.nt+1
		} else {
			p.u, p.nu = p.u+d, p.nu+1
		}
	}
	var t, u float64
	for _, p := range pairs {
		if p.nt > 0 && p.nu > 0 {
			t, u = t+p.t, u+p.u
		}
	}
	return pct(t-u, u)
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and then the result line.
func report(c *config, res *result) {
	list, vals := endToEnd, map[string]float64{
		"setup_s":     median(res.setupS),
		"op_ms_p50":   quantile(res.opMs, 0.5),
		"op_ms_p90":   quantile(res.opMs, 0.9),
		"ops_per_s":   float64(len(res.opMs)) / res.elapsed.Seconds(),
		"peak_rss_mb": peakRSSMiB(),
	}
	if c.trace {
		list, vals = perLayer(), res.layers
		vals["bench.tracing_overhead_pct"] = tracingOverhead(res)
		vals["bench.op_ms_p99"] = quantile(res.opMs, 0.99)
		vals["bench.ops"] = float64(len(res.opMs))
	}
	values := map[string]value{}
	for _, m := range list {
		values[m.name] = value{vals[m.name], m.unit}
	}
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed (failed_ratio %g), %d latency samples over %.1f s\n",
		c.workload, c.seed, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)),
		len(res.opMs), res.elapsed.Seconds())
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, m := range list {
		fmt.Printf("  %-36s %14.6g %s\n", m.name, values[m.name].Value, m.unit)
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, values}
	line, _ := json.Marshal(out) // a map of plain values always encodes
	fmt.Println(string(line))
}
