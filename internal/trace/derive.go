package trace

import (
	"fmt"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/profile"
)

// This file derives, from the recorded adjacency events, (a) the exact
// interesting-path frequencies (the evaluation's ground truth) and (b) the
// counters a degree-k instrumented run must produce. The latter gives the
// strongest possible cross-validation: the instrumented runtime's counters
// are compared key-for-key against trace-derived expectations.

// LoopPairKey identifies one loop interesting path (i ! j) by loop-path
// indices.
type LoopPairKey struct {
	Func, Loop, I, J int
}

// LoopPairs returns the exact frequencies of loop interesting paths: for
// every adjacency where both components contain full iteration sequences.
func (t *Tracer) LoopPairs() (map[LoopPairKey]uint64, error) {
	out := map[LoopPairKey]uint64{}
	for adj, n := range t.LoopAdj {
		fi := t.Info.Funcs[adj.Func]
		i := t.fullSeq(fi, t.factsOf(fi, adj.A), adj.Loop)
		j := t.fullSeq(fi, t.factsOf(fi, adj.B), adj.Loop)
		if t.Err != nil {
			return nil, t.Err
		}
		if i < 0 || j < 0 {
			continue
		}
		out[LoopPairKey{adj.Func, adj.Loop, i, j}] += n
	}
	return out, nil
}

// ExpectedLoopCounters derives the loop counters a degree-k instrumented
// run must produce.
func (t *Tracer) ExpectedLoopCounters(k int) (map[profile.LoopKey]uint64, error) {
	out := map[profile.LoopKey]uint64{}
	for adj, n := range t.LoopAdj {
		fi := t.Info.Funcs[adj.Func]
		li := fi.Loops[adj.Loop]
		x, err := li.Ext(li.EffectiveK(k))
		if err != nil {
			return nil, err
		}
		pb := t.path(fi, adj.B)
		if pb == nil {
			return nil, t.Err
		}
		occ, ok := bl.AnalyzeLoop(pb, li.LP, fi.DAG)
		if !ok {
			return nil, fmt.Errorf("trace: successor path %d misses loop head", adj.B)
		}
		blocks := occ.BlocksOf(pb)
		ext, err := x.Encode(x.CutSeq(blocks))
		if err != nil {
			return nil, fmt.Errorf("trace: encoding extension of path %d: %w", adj.B, err)
		}
		out[profile.LoopKey{
			Func: adj.Func, Loop: adj.Loop,
			Base: adj.A, Ext: ext,
			Full: occ.Full && occ.SeqIndex >= 0,
		}] += n
	}
	return out, nil
}

// ExpectedTypeI derives the Type I counters of a degree-k run.
func (t *Tracer) ExpectedTypeI(k int) (map[profile.TypeIKey]uint64, error) {
	out := map[profile.TypeIKey]uint64{}
	for adj, n := range t.T1 {
		callee := t.Info.Funcs[adj.Callee]
		x, err := callee.EntryExt(callee.EffectiveKEntry(k))
		if err != nil {
			return nil, err
		}
		q := t.path(callee, adj.Q)
		if q == nil {
			return nil, t.Err
		}
		if _, afterBack := q.StartHeader(); afterBack {
			return nil, fmt.Errorf("trace: first callee path %d does not start at entry", adj.Q)
		}
		ext, err := x.Encode(x.CutSeq(q.Blocks))
		if err != nil {
			return nil, fmt.Errorf("trace: encoding callee extension: %w", err)
		}
		out[profile.TypeIKey{
			Caller: adj.Caller, Site: adj.Site, Callee: adj.Callee,
			Prefix: adj.Prefix, Ext: ext,
		}] += n
	}
	return out, nil
}

// SuffixBlocks returns the caller-path suffix from the call-site block.
func SuffixBlocks(fi *profile.FuncInfo, p *bl.Path, site cfg.NodeID) ([]cfg.NodeID, error) {
	for i, b := range p.Blocks {
		if b == site {
			return p.Blocks[i:], nil
		}
	}
	return nil, fmt.Errorf("trace: path %d does not visit call site %s", p.ID, fi.G.Label(site))
}

// ExpectedTypeII derives the Type II counters of a degree-k run.
func (t *Tracer) ExpectedTypeII(k int) (map[profile.TypeIIKey]uint64, error) {
	out := map[profile.TypeIIKey]uint64{}
	for adj, n := range t.T2 {
		caller := t.Info.Funcs[adj.Caller]
		cs := caller.CallSites[adj.Site]
		x, err := cs.SuffixExt(cs.EffectiveKSuffix(k))
		if err != nil {
			return nil, err
		}
		p := t.path(caller, adj.CallerPath)
		if p == nil {
			return nil, t.Err
		}
		suffix, err := SuffixBlocks(caller, p, cs.Block)
		if err != nil {
			return nil, err
		}
		ext, err := x.Encode(x.CutSeq(suffix))
		if err != nil {
			return nil, fmt.Errorf("trace: encoding suffix extension: %w", err)
		}
		out[profile.TypeIIKey{
			Caller: adj.Caller, Site: adj.Site, Callee: adj.Callee,
			Path: adj.Q, Ext: ext,
		}] += n
	}
	return out, nil
}

// RealFlows sums the exact interesting-path frequencies by category.
type RealFlows struct {
	Loop, TypeI, TypeII uint64
}

// Total returns the combined interesting-path flow.
func (r RealFlows) Total() uint64 { return r.Loop + r.TypeI + r.TypeII }

// Flows computes the exact interesting-path flow totals.
func (t *Tracer) Flows() (RealFlows, error) {
	var rf RealFlows
	pairs, err := t.LoopPairs()
	if err != nil {
		return rf, err
	}
	for _, n := range pairs {
		rf.Loop += n
	}
	for _, n := range t.T1 {
		rf.TypeI += n
	}
	for _, n := range t.T2 {
		rf.TypeII += n
	}
	return rf, nil
}
