// Package pipeline owns the static artifacts of a profiled program — the
// analyzed profile.Info (CFGs, BL DAGs and numberings, loop info, and the
// lazily grown per-degree OL extension regions hanging off it) and the
// instrumentation plans keyed by configuration — built once and shared,
// concurrency-safe, across every run of the program. A degree sweep that
// used to rebuild plans, overlapping graphs, and chord placements per run
// now pays for each exactly once; the shared worker Pool bounds how many
// runs execute at a time.
//
// The layering: core.Session, experiments.Collect/CollectAll, and both
// CLIs all drive their runs through a Pipeline instead of calling
// profile.Analyze / instrument.New themselves.
package pipeline

import (
	"fmt"
	"io"
	"sync"
	"time"

	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/ir"
	"pathprof/internal/lang"
	"pathprof/internal/limits"
	"pathprof/internal/obs"
	"pathprof/internal/overhead"
	"pathprof/internal/profile"
	"pathprof/internal/regvm"
	"pathprof/internal/trace"
)

// Engine selects the execution engine instrumented runs use: one fast
// engine and one reference to check it against.
type Engine int

const (
	// EngineReg is the register machine with superinstruction fusion and
	// pooled zero-alloc run state (the default, and the zero value).
	EngineReg Engine = iota
	// EngineTree is the tree-walking reference interpreter with
	// listener-dispatched probes.
	EngineTree
)

// String implements flag-friendly rendering.
func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "regvm"
}

// ParseEngine maps a CLI flag value to an Engine.
func ParseEngine(s string) (Engine, bool) {
	switch s {
	case "regvm":
		return EngineReg, true
	case "tree":
		return EngineTree, true
	}
	return EngineReg, false
}

// Options configures a Pipeline.
type Options struct {
	// Limits bound the static enumerations (zero value = defaults).
	Limits profile.Limits
	// Store selects the counter-store layout runs write through (zero
	// value = the paged arena; StoreNested stays selectable as the
	// reference).
	Store profile.StoreKind
	// MaxSteps is the step limit Execute applies to every run (0 = the
	// engine default).
	MaxSteps int64
	// Engine selects the execution engine (zero value = the register
	// machine).
	Engine Engine
	// Pool is the worker pool sweeps draw slots from (nil = the shared
	// process-wide pool).
	Pool *Pool
}

// Pipeline is the per-program artifact cache.
type Pipeline struct {
	Prog *ir.Program
	Info *profile.Info

	opts Options

	mu       sync.Mutex
	plans    map[planKey]*planEntry
	regCodes map[planKey]*regEntry
}

// planKey identifies one instrumentation plan. Selection and ChordProfile
// cache by pointer identity: distinct selections (or chord weightings) are
// distinct plans, and the common nil means "everything"/"uniform".
type planKey struct {
	k                         int
	loops, interproc, chordBL bool
	selection                 *profile.Selection
	chordProfile              *profile.Counters
}

func keyOf(cfg instrument.Config) planKey {
	return planKey{
		k:            cfg.K,
		loops:        cfg.Loops,
		interproc:    cfg.Interproc,
		chordBL:      cfg.ChordBL,
		selection:    cfg.Selection,
		chordProfile: cfg.ChordProfile,
	}
}

// planEntry is a singleflight-style slot: the first caller builds, every
// concurrent and later caller waits and shares the result. Beside the plan
// it pools the configuration's arena stores: a store is sized from the
// plan's degree, so every run of the configuration can reuse it.
type planEntry struct {
	once   sync.Once
	plan   *instrument.Plan
	err    error
	stores sync.Pool
}

// regEntry caches one configuration's register code and its machine pool.
// Pooling hangs off the code entry because a machine's slab geometry is
// code-specific; shard fan-out over the same configuration pays the
// machine's allocations exactly once per worker.
type regEntry struct {
	once sync.Once
	code *regvm.Program
	err  error
	pool sync.Pool
}

// New analyzes an already-lowered program and wraps it in a Pipeline.
func New(prog *ir.Program, opts Options) (*Pipeline, error) {
	info, err := profile.Analyze(prog, opts.Limits)
	if err != nil {
		return nil, err
	}
	// Warm the program's lazy name index single-threaded so concurrent
	// machines only ever read it.
	prog.FuncByName("main")
	return &Pipeline{
		Prog: prog, Info: info, opts: opts,
		plans:    map[planKey]*planEntry{},
		regCodes: map[planKey]*regEntry{},
	}, nil
}

// Compile compiles source and wraps it in a Pipeline.
func Compile(source string, opts Options) (*Pipeline, error) {
	prog, err := lang.Compile(source)
	if err != nil {
		return nil, err
	}
	return New(prog, opts)
}

// Pool returns the pool this pipeline's sweeps use.
func (p *Pipeline) Pool() *Pool {
	if p.opts.Pool != nil {
		return p.opts.Pool
	}
	return Shared()
}

// NewStore allocates a counter store of the pipeline's configured kind
// (see profile.NewStore).
func (p *Pipeline) NewStore() profile.CounterStore {
	return profile.NewStore(p.opts.Store, p.Info)
}

// Plan returns the instrumentation plan for cfg, building it at most once
// per configuration even under concurrent callers. A loop window width
// other than the paper's two iterations (Config.Iters outside {0, 2}) is
// refused.
func (p *Pipeline) Plan(cfg instrument.Config) (*instrument.Plan, error) {
	e := p.planSlot(cfg)
	return e.plan, e.err
}

// planSlot returns cfg's plan cache slot with the plan built, or a slot
// holding only the error when cfg names a window width the plans do not
// profile.
func (p *Pipeline) planSlot(cfg instrument.Config) *planEntry {
	if err := limits.Iters(cfg.Iters); err != nil {
		return &planEntry{err: fmt.Errorf("pipeline: %w", err)}
	}
	key := keyOf(cfg)
	p.mu.Lock()
	e := p.plans[key]
	if e == nil {
		e = &planEntry{}
		p.plans[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		e.plan, e.err = instrument.BuildPlan(p.Info, cfg)
		if obs.DebugEnabled() {
			obs.Logger().Debug("pipeline.plan",
				"k", cfg.K, "loops", cfg.Loops, "interproc", cfg.Interproc,
				"elapsed_ms", time.Since(start).Milliseconds(), "err", errString(e.err))
		}
	})
	return e
}

// errString renders an error for a log attr without panicking on nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// regCode returns the singleflight cache slot holding cfg's compiled
// register code and machine pool, building the code at most once per
// configuration.
func (p *Pipeline) regCode(cfg instrument.Config) (*regEntry, error) {
	plan, err := p.Plan(cfg)
	if err != nil {
		return nil, err
	}
	key := keyOf(cfg)
	p.mu.Lock()
	e := p.regCodes[key]
	if e == nil {
		e = &regEntry{}
		p.regCodes[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		e.code, e.err = regvm.Compile(p.Prog, plan)
		if obs.DebugEnabled() {
			obs.Logger().Debug("pipeline.code",
				"engine", "regvm", "k", cfg.K,
				"elapsed_ms", time.Since(start).Milliseconds(), "err", errString(e.err))
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// machine checks a warmed machine out of the entry's pool (or allocates the
// first one), reset for a run at seed. Callers return it with e.pool.Put.
func (e *regEntry) machine(seed uint64) *regvm.Machine {
	if m, ok := e.pool.Get().(*regvm.Machine); ok {
		m.Reset(seed)
		return m
	}
	return regvm.NewMachine(e.code, seed)
}

// RegCode returns the compiled register program (with cfg's probes fused
// in), building it at most once per configuration — the compiled program is
// a cached artifact alongside the plan it embeds, shared across a degree
// sweep's runs. Tests and experiments read its fusion statistics.
func (p *Pipeline) RegCode(cfg instrument.Config) (*regvm.Program, error) {
	e, err := p.regCode(cfg)
	if err != nil {
		return nil, err
	}
	return e.code, nil
}

// CachedPlans reports how many plans the cache holds (for tests and
// diagnostics).
func (p *Pipeline) CachedPlans() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.plans)
}

// CachedCodes reports how many compiled register programs the cache holds,
// one per configuration (the tree engine compiles nothing).
func (p *Pipeline) CachedCodes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.regCodes)
}

// Run is the outcome of one instrumented execution.
type Run struct {
	// K is the profiled degree (-1 = Ball-Larus only).
	K int
	// Iters is the loop window width, always the paper's two iterations;
	// kept for callers that pass it on.
	Iters int
	// Selection is the structure selection the run used (nil = all).
	Selection *profile.Selection
	// Counters holds every collected counter.
	Counters *profile.Counters
	// Overhead reports probe cost against base cost.
	Overhead overhead.Report
	// Steps is the number of executed basic blocks.
	Steps int64
	// BaseOps is the uninstrumented operation count of the run.
	BaseOps int64
}

// Execute performs one instrumented run of the program at cfg with the
// given seed, through the cached plan (and, on the register engine, the
// cached compiled code and a pooled machine), under
// Options.MaxSteps. out, when non-nil, receives the program's print
// output. Safe for concurrent callers: the plan and static artifacts are
// shared, machine and counter store are per-run. On the default arena
// layout the store is sized from cfg's degree and checks out of a pool
// beside the plan; Run.Counters is materialized before the store is reset
// and returned, so no result aliases a pooled store.
func (p *Pipeline) Execute(cfg instrument.Config, seed uint64, out io.Writer) (*Run, error) {
	if p.opts.Store != profile.StoreArena {
		return p.ExecuteStore(p.opts.Engine, cfg, seed, out, p.NewStore(), p.opts.MaxSteps)
	}
	e := p.planSlot(cfg)
	if e.err != nil {
		return nil, e.err
	}
	store, _ := e.stores.Get().(*profile.ArenaStore)
	if store == nil {
		k := cfg.K
		if !cfg.Loops && !cfg.Interproc {
			k = -1
		}
		store = profile.NewArenaStoreK(p.Info, k)
	}
	run, err := p.ExecuteStore(p.opts.Engine, cfg, seed, out, store, p.opts.MaxSteps)
	store.Reset()
	e.stores.Put(store)
	return run, err
}

// ExecuteStore is Execute with the engine, counter store, and step limit
// (0 = the engine default) chosen per call — the entry point the
// differential oracle sweeps its engine x store matrix through.
func (p *Pipeline) ExecuteStore(eng Engine, cfg instrument.Config, seed uint64, out io.Writer, store profile.CounterStore, maxSteps int64) (*Run, error) {
	if eng == EngineReg {
		e, err := p.regCode(cfg)
		if err != nil {
			return nil, err
		}
		m := e.machine(seed)
		defer e.pool.Put(m)
		if out != nil {
			m.Out = out
		}
		if maxSteps > 0 {
			m.MaxSteps = maxSteps
		}
		start := time.Now()
		if err := m.Run(store); err != nil {
			return nil, err
		}
		if obs.DebugEnabled() {
			obs.Logger().Debug("pipeline.execute",
				"engine", eng.String(), "k", cfg.K, "seed", seed,
				"steps", m.Steps, "elapsed_ms", time.Since(start).Milliseconds())
		}
		return &Run{
			K:         cfg.K,
			Iters:     2,
			Selection: cfg.Selection,
			Counters:  store.Counters(),
			Overhead:  m.Report(),
			Steps:     m.Steps,
			BaseOps:   m.BaseOps,
		}, nil
	}

	plan, err := p.Plan(cfg)
	if err != nil {
		return nil, err
	}
	m := interp.New(p.Prog, seed)
	if out != nil {
		m.Out = out
	}
	if maxSteps > 0 {
		m.MaxSteps = maxSteps
	}
	rt := plan.Attach(m, store)
	start := time.Now()
	if err := m.Run(); err != nil {
		return nil, err
	}
	if rt.Err != nil {
		return nil, rt.Err
	}
	if obs.DebugEnabled() {
		obs.Logger().Debug("pipeline.execute",
			"engine", eng.String(), "k", cfg.K, "seed", seed,
			"steps", m.Steps, "elapsed_ms", time.Since(start).Milliseconds())
	}
	return &Run{
		K:         cfg.K,
		Iters:     2,
		Selection: cfg.Selection,
		Counters:  rt.Counters(),
		Overhead:  rt.Report(m.BaseOps),
		Steps:     m.Steps,
		BaseOps:   m.BaseOps,
	}, nil
}

// ExecuteSteady performs one instrumented run on the register engine with
// no result materialization: counters accumulate in the caller's store,
// print output is discarded, and the machine comes from (and returns to)
// the per-code pool, so in steady state the whole call is allocation-free.
// This is the hot path for shard fan-out over one configuration and for
// the steady-state benchmarks; callers read or Reset the store themselves.
func (p *Pipeline) ExecuteSteady(cfg instrument.Config, seed uint64, store profile.CounterStore) error {
	e, err := p.regCode(cfg)
	if err != nil {
		return err
	}
	m := e.machine(seed)
	err = m.Run(store)
	e.pool.Put(m)
	return err
}

// Trace performs one ground-truth tracer run, reusing the cached Info.
// When wpp is true the full block trace is accumulated as a SEQUITUR
// grammar on the tracer's WPP field.
func (p *Pipeline) Trace(seed uint64, wpp bool, out io.Writer) (*trace.Tracer, *interp.Machine, error) {
	m := interp.New(p.Prog, seed)
	if out != nil {
		m.Out = out
	}
	tr := trace.NewTracer(p.Info, m)
	if wpp {
		tr.EnableWPP()
	}
	if err := m.Run(); err != nil {
		return nil, nil, err
	}
	if tr.Err != nil {
		return nil, nil, tr.Err
	}
	return tr, m, nil
}
