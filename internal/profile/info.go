// Package profile holds the static analysis shared by every profiling
// component: per-function Ball-Larus DAGs, per-loop path enumerations and
// overlap regions, per-call-site prefix/suffix enumerations, and the counter
// key types that the ground-truth tracer, the instrumented runtime, and the
// estimators exchange.
package profile

import (
	"fmt"
	"sync"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/ir"
	"pathprof/internal/olpath"
)

// Limits bound the static enumerations; workloads are sized to fit.
type Limits struct {
	// MaxLoopSeqs bounds loop paths per loop.
	MaxLoopSeqs int
	// MaxPathsPerFunc bounds BL paths per function for the edge-profile
	// estimator (estimate.EdgeToPaths), which enumerates every path;
	// functions beyond it are still profiled and their interesting
	// paths estimated, which enumerates none.
	MaxPathsPerFunc int64
}

// DefaultLimits are generous enough for all bundled workloads.
func DefaultLimits() Limits {
	return Limits{MaxLoopSeqs: 4096, MaxPathsPerFunc: 1 << 20}
}

// LoopInfo is the static profile metadata of one natural loop.
type LoopInfo struct {
	// Index is the loop's position within FuncInfo.Loops.
	Index int
	Loop  *cfg.Loop
	// LP enumerates the loop paths (iteration sequences).
	LP *bl.LoopPaths
	// MaxDeg is the loop's maximum useful overlap degree.
	MaxDeg int

	fi      *FuncInfo
	mu      sync.Mutex
	exts    map[int]*olpath.Ext
	classes map[int]*CutClasses
}

// Ext returns (and caches) the degree-k extension region of the loop,
// rooted at the header and restricted to the body. Safe for concurrent
// callers: parallel degree sweeps and estimators share one Info.
func (li *LoopInfo) Ext(k int) (*olpath.Ext, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	if x, ok := li.exts[k]; ok {
		return x, nil
	}
	x, err := olpath.NewExt(li.fi.DAG, li.Loop.Head, li.Loop.Contains, k)
	if err != nil {
		return nil, err
	}
	li.exts[k] = x
	return x, nil
}

// EffectiveK clamps a requested degree to the loop's maximum useful degree.
func (li *LoopInfo) EffectiveK(k int) int {
	if k > li.MaxDeg {
		return li.MaxDeg
	}
	return k
}

// CallSiteInfo is the static metadata of one call site (a block whose
// terminator is a Call).
type CallSiteInfo struct {
	// Index is the site's position within FuncInfo.CallSites.
	Index int
	// Block is the call-site block.
	Block cfg.NodeID
	// Indirect reports a function-pointer call (callee varies at run
	// time).
	Indirect bool
	// Callee is the static callee's program function index for direct
	// calls, -1 for indirect ones.
	Callee int

	// MaxDegSuffix is the maximum useful Type II overlap degree of the
	// caller-suffix region rooted at Block.
	MaxDegSuffix int

	fi      *FuncInfo
	mu      sync.Mutex
	exts    map[int]*olpath.Ext
	classes map[int]*CutClasses

	// prefixes and suffixes cache the site's enumerations; prefixErr and
	// suffixErr cache an enumeration's error (only an overflow of
	// MaxRoutesPerSite can fail one).
	prefixes  *PrefixSet
	suffixes  *SuffixSet
	prefixErr error
	suffixErr error
}

// SuffixExt returns (and caches) the degree-k Type II suffix region rooted
// at the call-site block. Safe for concurrent callers.
func (cs *CallSiteInfo) SuffixExt(k int) (*olpath.Ext, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if x, ok := cs.exts[k]; ok {
		return x, nil
	}
	x, err := olpath.NewExt(cs.fi.DAG, cs.Block, nil, k)
	if err != nil {
		return nil, err
	}
	cs.exts[k] = x
	return x, nil
}

// EffectiveKSuffix clamps a requested degree to the suffix region's maximum.
func (cs *CallSiteInfo) EffectiveKSuffix(k int) int {
	if k > cs.MaxDegSuffix {
		return cs.MaxDegSuffix
	}
	return k
}

// FuncInfo is the static profile metadata of one function.
type FuncInfo struct {
	// Index is the function's program index (the paper's `func` id).
	Index int
	Fn    *ir.Func
	G     *cfg.Graph
	DAG   *bl.DAG
	// Loops lists the function's natural loops in header order.
	Loops []*LoopInfo
	// LoopOfHead maps a loop header node to its LoopInfo.
	LoopOfHead map[cfg.NodeID]*LoopInfo
	// LoopOfBackedge maps each backedge to its LoopInfo.
	LoopOfBackedge map[cfg.Edge]*LoopInfo
	// CallSites lists the function's call sites in block order.
	CallSites []*CallSiteInfo
	// CallSiteOfBlock maps a call-site block to its info.
	CallSiteOfBlock map[cfg.NodeID]*CallSiteInfo
	// MaxDegEntry is the maximum useful Type I overlap degree of the
	// callee-entry region (this function as a callee).
	MaxDegEntry int

	mu        sync.Mutex
	entryExts map[int]*olpath.Ext
	// counted, entryPaths and exitPaths cache PathCounts.
	counted               bool
	entryPaths, exitPaths int64
}

// EntryExt returns (and caches) the degree-k Type I extension region rooted
// at this function's entry (used when this function is the callee). Safe
// for concurrent callers.
func (fi *FuncInfo) EntryExt(k int) (*olpath.Ext, error) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if x, ok := fi.entryExts[k]; ok {
		return x, nil
	}
	x, err := olpath.NewExt(fi.DAG, fi.G.Entry(), nil, k)
	if err != nil {
		return nil, err
	}
	fi.entryExts[k] = x
	return x, nil
}

// EffectiveKEntry clamps a requested degree to the entry region's maximum.
func (fi *FuncInfo) EffectiveKEntry(k int) int {
	if k > fi.MaxDegEntry {
		return fi.MaxDegEntry
	}
	return k
}

// Info is the whole-program static profile metadata.
type Info struct {
	Prog   *ir.Program
	Funcs  []*FuncInfo // indexed by program function index
	Limits Limits

	byFunc map[*ir.Func]*FuncInfo
}

// OfFunc returns the FuncInfo of fn (nil for foreign functions).
func (info *Info) OfFunc(fn *ir.Func) *FuncInfo { return info.byFunc[fn] }

// Analyze computes the static metadata for prog.
func Analyze(prog *ir.Program, lim Limits) (*Info, error) {
	if lim.MaxLoopSeqs == 0 {
		lim = DefaultLimits()
	}
	info := &Info{Prog: prog, Limits: lim, byFunc: map[*ir.Func]*FuncInfo{}}
	for idx, fn := range prog.Funcs {
		fi, err := analyzeFunc(prog, idx, fn, lim)
		if err != nil {
			return nil, fmt.Errorf("profile: func %s: %w", fn.Name, err)
		}
		info.Funcs = append(info.Funcs, fi)
		info.byFunc[fn] = fi
	}
	return info, nil
}

func analyzeFunc(prog *ir.Program, idx int, fn *ir.Func, lim Limits) (*FuncInfo, error) {
	g := fn.CFG()
	d, err := bl.Build(g)
	if err != nil {
		return nil, err
	}
	fi := &FuncInfo{
		Index:           idx,
		Fn:              fn,
		G:               g,
		DAG:             d,
		LoopOfHead:      map[cfg.NodeID]*LoopInfo{},
		LoopOfBackedge:  map[cfg.Edge]*LoopInfo{},
		CallSiteOfBlock: map[cfg.NodeID]*CallSiteInfo{},
		entryExts:       map[int]*olpath.Ext{},
	}

	for _, l := range d.Loops.Loops {
		lp, err := d.LoopSeqs(l, lim.MaxLoopSeqs)
		if err != nil {
			return nil, err
		}
		x0, err := olpath.NewExt(d, l.Head, l.Contains, 0)
		if err != nil {
			return nil, err
		}
		li := &LoopInfo{
			Index:  len(fi.Loops),
			Loop:   l,
			LP:     lp,
			MaxDeg: x0.MaxDegree(),
			fi:     fi,
			exts:   map[int]*olpath.Ext{0: x0},
		}
		fi.Loops = append(fi.Loops, li)
		fi.LoopOfHead[l.Head] = li
		for _, be := range l.Backedges {
			fi.LoopOfBackedge[be] = li
		}
	}

	for _, b := range fn.Blocks {
		c, ok := b.Term.(ir.Call)
		if !ok {
			continue
		}
		x0, err := olpath.NewExt(d, cfg.NodeID(b.ID), nil, 0)
		if err != nil {
			return nil, err
		}
		cs := &CallSiteInfo{
			Index:        len(fi.CallSites),
			Block:        cfg.NodeID(b.ID),
			Indirect:     c.Indirect,
			Callee:       -1,
			MaxDegSuffix: x0.MaxDegree(),
			fi:           fi,
			exts:         map[int]*olpath.Ext{0: x0},
		}
		if !c.Indirect {
			cs.Callee = prog.FuncIndex(c.Callee)
		}
		fi.CallSites = append(fi.CallSites, cs)
		fi.CallSiteOfBlock[cs.Block] = cs
	}

	ex0, err := fi.EntryExt(0)
	if err != nil {
		return nil, err
	}
	fi.MaxDegEntry = ex0.MaxDegree()
	return fi, nil
}

// MaxDegree returns the largest useful overlap degree anywhere in the
// program: experiments sweep k from -1 (BL) to this value.
func (info *Info) MaxDegree() int {
	max := 0
	for _, fi := range info.Funcs {
		if fi.MaxDegEntry > max {
			max = fi.MaxDegEntry
		}
		for _, li := range fi.Loops {
			if li.MaxDeg > max {
				max = li.MaxDeg
			}
		}
		for _, cs := range fi.CallSites {
			if cs.MaxDegSuffix > max {
				max = cs.MaxDegSuffix
			}
		}
	}
	return max
}
