// Package core is the library's top-level API: it ties the language
// frontend, the static profile analysis, the instrumented runtime, the
// ground-truth tracer, and the estimators into a small surface that the
// command-line tools, the examples, and downstream users drive.
//
// The typical flow:
//
//	s, err := core.Open(source)
//	run, err := s.ProfileOL(seed, k)        // instrumented execution
//	est, err := s.Estimate(run)             // interesting-path bounds
//	fmt.Println(est.Summary())
//
// A Session is reusable across runs and degrees; all static analysis —
// CFGs, BL numberings, OL extension regions, instrumentation plans — is
// cached on its pipeline.ArtifactCache, so repeated runs at the same
// degree pay for plan construction once.
package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"pathprof/internal/estimate"
	"pathprof/internal/instrument"
	"pathprof/internal/ir"
	"pathprof/internal/overhead"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/trace"
)

// Session is a compiled and analyzed program ready for profiling.
type Session struct {
	Prog *ir.Program
	Info *profile.Info
	// Out receives the profiled program's print output (default: discard).
	Out io.Writer

	pipe *pipeline.Pipeline
}

// Open compiles source and runs the static profile analysis.
func Open(source string) (*Session, error) {
	return OpenOptions(source, pipeline.Options{})
}

// OpenOptions is Open with explicit pipeline options (limits, counter
// store layout, worker pool).
func OpenOptions(source string, opts pipeline.Options) (*Session, error) {
	p, err := pipeline.Compile(source, opts)
	if err != nil {
		return nil, err
	}
	return FromPipeline(p), nil
}

// OpenProgram wraps an already-lowered IR program (e.g. a bundled
// benchmark).
func OpenProgram(prog *ir.Program) (*Session, error) {
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		return nil, err
	}
	return FromPipeline(p), nil
}

// FromPipeline wraps an existing artifact cache in a Session, sharing its
// cached plans with every other user of the pipeline.
func FromPipeline(p *pipeline.Pipeline) *Session {
	return &Session{Prog: p.Prog, Info: p.Info, pipe: p}
}

// Pipeline exposes the session's artifact cache.
func (s *Session) Pipeline() *pipeline.Pipeline { return s.pipe }

// MaxDegree returns the largest useful overlap degree in the program.
func (s *Session) MaxDegree() int { return s.Info.MaxDegree() }

// Run is the outcome of one instrumented execution.
type Run struct {
	// K is the profiled degree (-1 = Ball-Larus only).
	K int
	// Selection is the structure selection the run used (nil = all).
	Selection *profile.Selection
	// Counters holds every collected counter.
	Counters *profile.Counters
	// Overhead reports probe cost against base cost.
	Overhead overhead.Report
	// Steps is the number of executed basic blocks.
	Steps int64
}

// ProfileBL runs the program with Ball-Larus instrumentation only.
func (s *Session) ProfileBL(seed uint64) (*Run, error) { return s.profile(seed, -1) }

// ProfileBLChords is ProfileBL with the spanning-tree probe placement;
// weights, when non-nil, come from a prior run's counters so hot edges
// escape instrumentation.
func (s *Session) ProfileBLChords(seed uint64, weights *profile.Counters) (*Run, error) {
	return s.execute(instrument.Config{K: -1, ChordBL: true, ChordProfile: weights}, seed)
}

// ProfileOL runs the program with degree-k overlapping-path instrumentation
// (loop and interprocedural) on top of BL.
func (s *Session) ProfileOL(seed uint64, k int) (*Run, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: ProfileOL needs k >= 0 (use ProfileBL)")
	}
	return s.execute(instrument.Config{K: k, Loops: true, Interproc: true}, seed)
}

// ProfileSelective is ProfileOL restricted to a structure selection
// (typically from SelectHot): only selected loops and call sites get
// overlapping-path probes; everything keeps Ball-Larus probes.
func (s *Session) ProfileSelective(seed uint64, k int, sel *profile.Selection) (*Run, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: ProfileSelective needs k >= 0")
	}
	return s.profileSel(seed, k, sel)
}

// SelectHot builds a hot-structure selection from a BL run, covering the
// given fraction of backedge crossings and calls.
func (s *Session) SelectHot(blRun *Run, coverage float64) (*profile.Selection, error) {
	return profile.SelectHot(s.Info, blRun.Counters, coverage)
}

func (s *Session) profile(seed uint64, k int) (*Run, error) {
	return s.profileSel(seed, k, nil)
}

func (s *Session) profileSel(seed uint64, k int, sel *profile.Selection) (*Run, error) {
	return s.execute(instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0, Selection: sel}, seed)
}

// execute routes one instrumented run through the pipeline's cached plans.
func (s *Session) execute(cfg instrument.Config, seed uint64) (*Run, error) {
	r, err := s.pipe.Execute(cfg, seed, s.Out)
	if err != nil {
		return nil, err
	}
	return &Run{K: r.K, Selection: r.Selection, Counters: r.Counters, Overhead: r.Overhead, Steps: r.Steps}, nil
}

// RunFromCounters wraps previously collected (e.g. deserialized) counters
// as a Run so they can feed estimation; overhead data is absent. iters is
// the loop window width, always the paper's two iterations: the parameter
// is kept for callers, and every reader of a width from outside the
// process (LoadRun, merge.Decode) has already refused any other.
func RunFromCounters(k, iters int, c *profile.Counters) *Run {
	return &Run{K: k, Counters: c}
}

// Trace runs the program under the ground-truth tracer (the WPP-equivalent
// collection: exact interesting-path frequencies and flow attribution).
func (s *Session) Trace(seed uint64) (*trace.Tracer, error) {
	return s.trace(seed, false)
}

// TraceWPP is Trace with whole-program-path recording enabled: the full
// block trace is accumulated as a SEQUITUR grammar on the tracer's WPP
// field.
func (s *Session) TraceWPP(seed uint64) (*trace.Tracer, error) {
	return s.trace(seed, true)
}

func (s *Session) trace(seed uint64, wpp bool) (*trace.Tracer, error) {
	tr, _, err := s.pipe.Trace(seed, wpp, s.Out)
	return tr, err
}

// LoopEstimate pairs a loop with its solved bounds.
type LoopEstimate struct {
	Func *profile.FuncInfo
	Loop *profile.LoopInfo
	Res  *estimate.LoopResult
}

// SiteEstimate pairs one (caller, site, callee) edge with its Type I and
// Type II bounds.
type SiteEstimate struct {
	Caller *profile.FuncInfo
	Site   *profile.CallSiteInfo
	Callee *profile.FuncInfo
	Calls  uint64
	TypeI  *estimate.InterResult
	TypeII *estimate.InterResult
}

// ProgramEstimate aggregates a whole-program estimation.
type ProgramEstimate struct {
	K     int
	Mode  estimate.Mode
	Loops []LoopEstimate
	Sites []SiteEstimate
	// Skipped counts problems over the size limit.
	Skipped int
}

// Definite sums lower bounds over all interesting paths.
func (pe *ProgramEstimate) Definite() int64 {
	var v int64
	for _, l := range pe.Loops {
		v += l.Res.Definite()
	}
	for _, st := range pe.Sites {
		if st.TypeI != nil {
			v += st.TypeI.Definite()
		}
		if st.TypeII != nil {
			v += st.TypeII.Definite()
		}
	}
	return v
}

// Potential sums upper bounds over all interesting paths.
func (pe *ProgramEstimate) Potential() int64 {
	var v int64
	for _, l := range pe.Loops {
		v += l.Res.Potential()
	}
	for _, st := range pe.Sites {
		if st.TypeI != nil {
			v += st.TypeI.Potential()
		}
		if st.TypeII != nil {
			v += st.TypeII.Potential()
		}
	}
	return v
}

// Counts returns (interesting paths, exactly-pinned paths) over every
// solved problem. A path without a solver variable (its cap is 0) counts,
// pinned at [0, 0].
func (pe *ProgramEstimate) Counts() (vars, exact int) {
	for _, l := range pe.Loops {
		vars += l.Res.N
		exact += l.Res.Exact()
	}
	for _, st := range pe.Sites {
		for _, r := range []*estimate.InterResult{st.TypeI, st.TypeII} {
			if r != nil {
				vars += r.N
				exact += r.Exact()
			}
		}
	}
	return
}

// Summary renders a short human-readable overview.
func (pe *ProgramEstimate) Summary() string {
	vars, exact := pe.Counts()
	return fmt.Sprintf("k=%d mode=%v: definite=%d potential=%d, %d/%d paths pinned exactly, %d problems skipped",
		pe.K, pe.Mode, pe.Definite(), pe.Potential(), exact, vars, pe.Skipped)
}

// Estimate solves every interesting-path estimation problem from a run's
// counters at the run's own degree, in Paper mode. (Estimating "at a lower
// degree" needs no separate entry point: the constraint set already contains
// every coarser level, so a degree-k profile subsumes the lower-degree
// estimates.)
func (s *Session) Estimate(run *Run) (*ProgramEstimate, error) {
	return s.EstimateMode(run, estimate.Paper)
}

// EstimateMode is Estimate with an explicit constraint mode. The run's
// counters are sorted by structure once, and each function's profiled BL
// paths are reconstructed once, for all of its loops and call edges
// (estimate.Batch); the per-structure static work is cached on s.Info.
func (s *Session) EstimateMode(run *Run, mode estimate.Mode) (*ProgramEstimate, error) {
	k := run.K
	pe := &ProgramEstimate{K: k, Mode: mode}
	c := run.Counters
	b := estimate.NewBatch(s.Info, c)
	for fidx, fi := range s.Info.Funcs {
		for _, li := range fi.Loops {
			// Structures outside the run's selection carry no
			// overlap counters; estimate them from BL data alone.
			lk := k
			if !run.Selection.LoopOn(fidx, li.Index) {
				lk = -1
			}
			res, err := b.Loop(fi, li, lk, mode)
			if err != nil {
				return nil, err
			}
			pe.Loops = append(pe.Loops, LoopEstimate{Func: fi, Loop: li, Res: res})
		}
	}
	// Deterministic site order.
	keys := make([]profile.CallKey, 0, len(c.Calls))
	for ck := range c.Calls {
		keys = append(keys, ck)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Callee < b.Callee
	})
	for _, ck := range keys {
		caller := s.Info.Funcs[ck.Caller]
		cs := caller.CallSites[ck.Site]
		se := SiteEstimate{
			Caller: caller, Site: cs, Callee: s.Info.Funcs[ck.Callee],
			Calls: c.Calls[ck],
		}
		sk := k
		if !run.Selection.SiteOn(ck.Caller, ck.Site) {
			sk = -1
		}
		r1, err := b.TypeI(caller, cs, ck.Callee, c.Calls[ck], sk, mode)
		switch err {
		case nil:
			se.TypeI = r1
		case estimate.ErrTooLarge:
			pe.Skipped++
		default:
			return nil, err
		}
		r2, err := b.TypeII(caller, cs, ck.Callee, c.Calls[ck], sk, mode)
		switch err {
		case nil:
			se.TypeII = r2
		case estimate.ErrTooLarge:
			pe.Skipped++
		default:
			return nil, err
		}
		pe.Sites = append(pe.Sites, se)
	}
	return pe, nil
}

// HotPath is one entry of a profile report.
type HotPath struct {
	Func  string
	ID    int64
	Count uint64
	// Blocks is the rendered block sequence, "!"-terminated when the
	// path ends at a backedge.
	Blocks string
}

// HottestPaths returns the n most frequent BL paths across the program.
func (s *Session) HottestPaths(run *Run, n int) ([]HotPath, error) {
	var all []HotPath
	for fidx, prof := range run.Counters.BL {
		fi := s.Info.Funcs[fidx]
		for id, cnt := range prof {
			p, err := fi.DAG.PathForID(id)
			if err != nil {
				return nil, err
			}
			all = append(all, HotPath{
				Func: fi.Fn.Name, ID: id, Count: cnt,
				Blocks: p.Format(fi.G),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		if all[i].Func != all[j].Func {
			return all[i].Func < all[j].Func
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}

// FormatHotPaths renders a hot-path report.
func FormatHotPaths(paths []HotPath) string {
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "%8d  %s#%d  %s\n", p.Count, p.Func, p.ID, p.Blocks)
	}
	return b.String()
}

// AdviseK picks the largest overlap degree whose total instrumentation
// overhead stays within budgetPct — the paper's "the amount of overlap can
// be selected to control the cost", automated with short calibration runs.
// The advised degree is -1 when only plain Ball-Larus profiling fits; ok is
// false when not even that does.
func (s *Session) AdviseK(seed uint64, budgetPct float64) (k int, ok bool, err error) {
	blRun, err := s.ProfileBL(seed)
	if err != nil {
		return -1, false, err
	}
	if blRun.Overhead.BLPct() > budgetPct {
		return -1, false, nil
	}
	best := -1
	for k := 0; k <= s.MaxDegree(); k++ {
		run, err := s.ProfileOL(seed, k)
		if err != nil {
			return best, true, err
		}
		if run.Overhead.BLPct()+run.Overhead.AllPct() > budgetPct {
			break
		}
		best = k
	}
	return best, true, nil
}
