// Package oracle is the differential-testing subsystem: given a compiled
// program and an input seed, it derives ground truth with the
// interpreter-driven tracer, replays the program through the instrumented
// pipeline across degrees, engines, counter stores, and sweep modes, and
// checks a fixed battery of metamorphic invariants
// connecting the two. The run cube pairs the fast path with its
// references: the register engine against the tree-walking interpreter,
// the arena store against the nested maps. It is the correctness gate
// every performance-oriented change to the profiling stack must pass: the
// invariants encode the paper's central numeric claims (instrumented OL-k
// counters agree with what actually executed; the flow equations bracket
// real interesting-path flow between definite and potential estimates;
// precision is monotone in k), plus the repo's own serialization and
// store-equivalence contracts.
//
// The package exposes one entry point per granularity: Check (a prepared
// pipeline), CheckSource (source text), and CheckSeed (a randprog generator
// seed). Tests and the native fuzz targets layer on top.
package oracle

import (
	"bytes"
	"fmt"
	"sort"

	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
	"pathprof/internal/trace"
)

// Checks selects which invariant families a Check run validates. The zero
// value means ChecksAll; fuzz targets narrow to one family each so every
// fuzz execution stays fast and failures point at one invariant.
type Checks uint

const (
	// CheckCounters validates instrumented counters against trace-derived
	// expectations key-for-key (BL, loop, Type I, Type II, calls), the
	// OL-0 == BL identity, and the conservation sums.
	CheckCounters Checks = 1 << iota
	// CheckStores validates engine and store equivalence: every (engine,
	// store) cell materializes the canonical counters of the first one.
	CheckStores
	// CheckEstimates validates bound bracketing (definite <= real <=
	// potential) and monotone tightening in k, for both constraint modes.
	CheckEstimates
	// CheckSerialization validates byte-stable serialization across
	// stores and lossless round-trips.
	CheckSerialization
	// CheckParallel re-runs the whole degree x store matrix concurrently
	// through a worker pool and byte-compares against the sequential
	// sweep.
	CheckParallel
	// CheckMerge validates the aggregation-service invariant: splitting a
	// workload into independently profiled chunks and folding the chunk
	// snapshots through internal/merge serializes byte-identically to the
	// unsplit concatenated run, for every store layout.
	CheckMerge

	// ChecksAll enables the full battery.
	ChecksAll = CheckCounters | CheckStores | CheckEstimates | CheckSerialization | CheckParallel | CheckMerge
)

// Config bounds and selects one oracle run.
type Config struct {
	// Ks are the profiled degrees (default {0, 1, 2}).
	Ks []int
	// Stores are the counter-store layouts (default nested and arena: the
	// nested maps are the reference the paged arena must match).
	Stores []profile.StoreKind
	// Engines are the execution engines (default tree and regvm: the
	// listener-dispatched reference interpreter is the baseline the
	// register machine must match).
	Engines []pipeline.Engine
	// Modes are the estimation constraint modes (default Paper and
	// Extended).
	Modes []estimate.Mode
	// Checks selects invariant families (zero value = ChecksAll).
	Checks Checks
	// MaxTraceSteps skips programs whose uninstrumented run exceeds it
	// (default randprog.MaxOracleSteps).
	MaxTraceSteps int64
	// MaxRunSteps is the interpreter hard limit (default
	// randprog.MaxRunSteps).
	MaxRunSteps int64
	// Pool is the worker pool the parallel sweep draws from (nil = the
	// process-wide shared pool).
	Pool *pipeline.Pool
}

func (c Config) withDefaults() Config {
	if len(c.Ks) == 0 {
		c.Ks = []int{0, 1, 2}
	}
	if len(c.Stores) == 0 {
		c.Stores = []profile.StoreKind{profile.StoreNested, profile.StoreArena}
	}
	if len(c.Engines) == 0 {
		c.Engines = []pipeline.Engine{pipeline.EngineTree, pipeline.EngineReg}
	}
	if len(c.Modes) == 0 {
		c.Modes = []estimate.Mode{estimate.Paper, estimate.Extended}
	}
	if c.Checks == 0 {
		c.Checks = ChecksAll
	}
	if c.MaxTraceSteps == 0 {
		c.MaxTraceSteps = randprog.MaxOracleSteps
	}
	if c.MaxRunSteps == 0 {
		c.MaxRunSteps = randprog.MaxRunSteps
	}
	ks := append([]int(nil), c.Ks...)
	sort.Ints(ks)
	c.Ks = ks
	return c
}

// Violation is one failed invariant. Violations carry enough detail to
// reproduce: the invariant name, the (k, store, engine) cell of the run
// matrix, and a human-readable diff fragment.
type Violation struct {
	Invariant string
	K         int
	Store     profile.StoreKind
	Engine    pipeline.Engine
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] k=%d store=%s engine=%s: %s",
		v.Invariant, v.K, v.Store, v.Engine, v.Detail)
}

// Result is the outcome of one oracle run.
type Result struct {
	// Skipped reports that the program exceeded MaxTraceSteps and the
	// battery did not run (Violations is empty and meaningless).
	Skipped bool
	// Steps is the uninstrumented step count of the ground-truth run.
	Steps int64
	// Runs counts the instrumented executions performed.
	Runs int
	// Violations lists every failed invariant (empty on a clean pass).
	Violations []Violation
}

// Ok reports a fully validated, violation-free run.
func (r *Result) Ok() bool { return !r.Skipped && len(r.Violations) == 0 }

// Err renders the violations as one error (nil when Ok or Skipped).
func (r *Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "oracle: %d invariant violation(s):", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

// CheckSeed runs the battery on the canonical program of one randprog
// generator seed, with interpreter seed == generator seed (the harnesses'
// convention).
func CheckSeed(genSeed int64, cfg Config) (*Result, error) {
	return CheckSource(randprog.SeedSource(genSeed), uint64(genSeed), cfg)
}

// CheckSource compiles source and runs the battery.
func CheckSource(source string, seed uint64, cfg Config) (*Result, error) {
	p, err := pipeline.Compile(source, pipeline.Options{})
	if err != nil {
		return nil, err
	}
	return Check(p, seed, cfg)
}

// Check runs the invariant battery against an already-built pipeline.
// Infrastructure failures (compile, analyze, run errors) come back as the
// error; invariant failures come back in Result.Violations so a harness can
// report all of them at once.
func Check(p *pipeline.Pipeline, seed uint64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	c := &checker{p: p, seed: seed, cfg: cfg, res: &Result{}}

	if err := c.ground(); err != nil {
		return nil, err
	}
	if c.res.Skipped {
		return c.res, nil
	}
	if err := c.sweep(); err != nil {
		return nil, err
	}
	if cfg.Checks&CheckCounters != 0 {
		if err := c.checkCounters(); err != nil {
			return nil, err
		}
	}
	if cfg.Checks&CheckStores != 0 {
		c.checkStores()
	}
	if cfg.Checks&CheckSerialization != 0 {
		c.checkSerialization()
	}
	if cfg.Checks&CheckEstimates != 0 {
		if err := c.checkEstimates(); err != nil {
			return nil, err
		}
	}
	if cfg.Checks&CheckParallel != 0 {
		if err := c.checkParallel(); err != nil {
			return nil, err
		}
	}
	if cfg.Checks&CheckMerge != 0 {
		if err := c.checkMerge(); err != nil {
			return nil, err
		}
	}
	return c.res, nil
}

// cell is one (degree, store, engine) coordinate of the run matrix.
type cell struct {
	k    int
	kind profile.StoreKind
	eng  pipeline.Engine
}

type checker struct {
	p    *pipeline.Pipeline
	seed uint64
	cfg  Config
	res  *Result

	tr *trace.Tracer
	// counters and serialized hold the sequential sweep's outcome per
	// matrix cell.
	counters   map[cell]*profile.Counters
	serialized map[cell][]byte

	// tamperChunk, when set, corrupts chunk i's counters before the merge
	// fold — the self-test hook proving the merge invariant has teeth.
	tamperChunk func(i int, c *profile.Counters)
}

func (c *checker) violate(inv string, cl cell, format string, args ...any) {
	c.res.Violations = append(c.res.Violations, Violation{
		Invariant: inv, K: cl.k, Store: cl.kind, Engine: cl.eng,
		Detail: fmt.Sprintf(format, args...),
	})
}

// ground performs the ground-truth tracer run.
func (c *checker) ground() error {
	m := interp.New(c.p.Prog, c.seed)
	m.MaxSteps = c.cfg.MaxRunSteps
	tr := trace.NewTracer(c.p.Info, m)
	if err := m.Run(); err != nil {
		return fmt.Errorf("oracle: ground-truth run: %w", err)
	}
	if tr.Err != nil {
		return fmt.Errorf("oracle: tracer: %w", tr.Err)
	}
	c.res.Steps = m.Steps
	if m.Steps > c.cfg.MaxTraceSteps {
		c.res.Skipped = true
		return nil
	}
	c.tr = tr
	return nil
}

// run executes one instrumented run at matrix cell cl through the shared
// pipeline artifact cache (plans, and compiled code on the register engine),
// returning its counters and serialized form.
func (c *checker) run(cl cell) (*profile.Counters, []byte, error) {
	cfg := instrument.Config{K: cl.k, Loops: true, Interproc: true}
	store := profile.NewStore(cl.kind, c.p.Info)
	if cl.kind == profile.StoreArena {
		// Sized for the cell's degree, as Pipeline.Execute sizes the
		// default store.
		store = profile.NewArenaStoreK(c.p.Info, cl.k)
	}
	r, err := c.p.ExecuteStore(cl.eng, cfg, c.seed, nil, store, c.cfg.MaxRunSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: run k=%d store=%s engine=%s: %w", cl.k, cl.kind, cl.eng, err)
	}
	var buf bytes.Buffer
	if err := r.Counters.Serialize(&buf); err != nil {
		return nil, nil, fmt.Errorf("oracle: serialize k=%d store=%s engine=%s: %w", cl.k, cl.kind, cl.eng, err)
	}
	return r.Counters, buf.Bytes(), nil
}

// sweep fills the run matrix sequentially.
func (c *checker) sweep() error {
	c.counters = map[cell]*profile.Counters{}
	c.serialized = map[cell][]byte{}
	for _, cl := range c.cells() {
		counters, raw, err := c.run(cl)
		if err != nil {
			return err
		}
		c.counters[cl] = counters
		c.serialized[cl] = raw
		c.res.Runs++
	}
	return nil
}

func (c *checker) cells() []cell {
	var out []cell
	for _, k := range c.cfg.Ks {
		for _, eng := range c.cfg.Engines {
			for _, kind := range c.cfg.Stores {
				out = append(out, cell{k: k, kind: kind, eng: eng})
			}
		}
	}
	return out
}

// at returns the sequential counters of degree k under the first
// configured store and engine (all store/engine combinations are proven
// identical by checkStores).
func (c *checker) at(k int) *profile.Counters {
	return c.counters[cell{k: k, kind: c.cfg.Stores[0], eng: c.cfg.Engines[0]}]
}
