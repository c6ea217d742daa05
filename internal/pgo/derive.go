package pgo

import (
	"fmt"
	"sort"

	"pathprof/internal/apps"
	"pathprof/internal/cfg"
	"pathprof/internal/estimate"
	"pathprof/internal/profile"
)

// Derive analyzes a profile against its program's static metadata and
// produces a layout plan. Derivation is deterministic: counter maps are
// only ever folded through commutative sums, and every ordering decision
// breaks ties toward the smaller block id, so the same profile always
// yields the same plan bytes.
func Derive(info *profile.Info, p *Profile) (*Plan, error) {
	nf := len(info.Funcs)
	if p.Counters == nil {
		return nil, fmt.Errorf("pgo: nil counters")
	}
	if len(p.Counters.BL) != nf {
		return nil, fmt.Errorf("pgo: profile has %d functions, program has %d",
			len(p.Counters.BL), nf)
	}

	// Per-function heat: edge heat drives chaining, block heat picks
	// chain restarts and separates hot blocks from the cold tail.
	edgeHeat := make([]map[cfg.Edge]uint64, nf)
	blockHeat := make([][]uint64, nf)
	for i, fi := range info.Funcs {
		edgeHeat[i] = map[cfg.Edge]uint64{}
		blockHeat[i] = make([]uint64, fi.G.Len())
	}

	// Stage bl-heat: decode every counted BL path and charge its blocks
	// and consecutive edges; a path ending at a backedge also charges the
	// backedge itself, so loop spines outweigh exits even under BL-only
	// profiles.
	for idx, fi := range info.Funcs {
		for id, n := range p.Counters.BL[idx] {
			path, err := fi.DAG.PathForID(id)
			if err != nil {
				return nil, fmt.Errorf("pgo: func %s: %w", fi.Fn.Name, err)
			}
			for bi, b := range path.Blocks {
				blockHeat[idx][b] += n
				if bi+1 < len(path.Blocks) {
					edgeHeat[idx][cfg.Edge{From: b, To: path.Blocks[bi+1]}] += n
				}
			}
			if be, ok := path.EndBackedge(); ok {
				edgeHeat[idx][be] += n
			}
		}
	}

	// Stage loop-spine: decode each overlap crossing's route through the
	// loop's degree-k extension region and charge the cross-iteration
	// edges — the signal BL profiles cannot see, and the reason the
	// dominant *overlapping* path (not just the hottest acyclic path)
	// becomes the fall-through spine.
	if p.K >= 0 {
		for lk, n := range p.Counters.Loop {
			if lk.Func < 0 || lk.Func >= nf {
				return nil, fmt.Errorf("pgo: loop counter names func %d of %d", lk.Func, nf)
			}
			fi := info.Funcs[lk.Func]
			if lk.Loop < 0 || lk.Loop >= len(fi.Loops) {
				return nil, fmt.Errorf("pgo: loop counter names loop %d of %d in %s",
					lk.Loop, len(fi.Loops), fi.Fn.Name)
			}
			li := fi.Loops[lk.Loop]
			x, err := li.Ext(li.EffectiveK(p.K))
			if err != nil {
				return nil, err
			}
			nodes, err := x.Decode(lk.Ext)
			if err != nil {
				return nil, fmt.Errorf("pgo: func %s loop %d: %w", fi.Fn.Name, lk.Loop, err)
			}
			for bi, b := range nodes {
				blockHeat[lk.Func][b] += n
				if bi+1 < len(nodes) {
					edgeHeat[lk.Func][cfg.Edge{From: b, To: nodes[bi+1]}] += n
				}
			}
		}
	}

	// Stage branch-orient: for every profiled call edge, ask the Type I
	// estimator which callee branches the caller provably decides
	// (internal/apps/branchcorr as a compiler input, not a report) and
	// charge the proven flow onto the callee's taken edge so chaining
	// lays the proven direction as the fall-through.
	for ck, calls := range p.Counters.Calls {
		if ck.Caller < 0 || ck.Caller >= nf || ck.Callee < 0 || ck.Callee >= nf {
			return nil, fmt.Errorf("pgo: call counter names funcs (%d,%d) of %d",
				ck.Caller, ck.Callee, nf)
		}
		caller := info.Funcs[ck.Caller]
		if ck.Site < 0 || ck.Site >= len(caller.CallSites) {
			return nil, fmt.Errorf("pgo: call counter names site %d of %d in %s",
				ck.Site, len(caller.CallSites), caller.Fn.Name)
		}
		cs := caller.CallSites[ck.Site]
		r, err := estimate.TypeI(info, caller, cs, ck.Callee,
			p.Counters.BL[ck.Caller], p.Counters.BL[ck.Callee],
			p.Counters.TypeI, calls, p.K, estimate.Paper)
		if err == estimate.ErrTooLarge {
			continue
		}
		if err != nil {
			return nil, err
		}
		fs, err := apps.BranchCorrelations(info, caller, cs, ck.Callee, r, 1)
		if err != nil {
			return nil, err
		}
		for _, f := range fs {
			edgeHeat[ck.Callee][cfg.Edge{From: f.Branch, To: f.Taken}] += uint64(f.ProvenFlow)
		}
	}

	// Stages chain + cold-tail, per function.
	plan := &Plan{K: p.K}
	for idx, fi := range info.Funcs {
		order, hot := chainFunc(fi.G, edgeHeat[idx], blockHeat[idx])
		plan.Funcs = append(plan.Funcs, FuncLayout{
			Func:  idx,
			Name:  fi.Fn.Name,
			Order: order,
			Hot:   hot,
		})
	}
	return plan, nil
}

// chainFunc greedily grows fall-through chains: starting at the entry,
// repeatedly follow the heaviest still-unplaced successor edge; when the
// chain dies, restart at the hottest unplaced block. Blocks with zero
// heat form the cold tail in id order, and a function with no heat at all
// keeps its identity order.
func chainFunc(g *cfg.Graph, edgeHeat map[cfg.Edge]uint64, blockHeat []uint64) (order []int, hot int) {
	n := g.Len()
	var total uint64
	for _, h := range blockHeat {
		total += h
	}
	if total == 0 {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
		return order, 0
	}

	order = make([]int, 0, n)
	placed := make([]bool, n)
	place := func(b int) {
		placed[b] = true
		order = append(order, b)
	}
	cur := int(g.Entry())
	place(cur)
	for {
		// Heaviest unplaced successor edge; ascending scan with a
		// strict comparison keeps the smaller id on ties.
		next := -1
		var best uint64
		for _, s := range sortedSuccs(g, cfg.NodeID(cur)) {
			if placed[s] {
				continue
			}
			if h := edgeHeat[cfg.Edge{From: cfg.NodeID(cur), To: s}]; h > best {
				best, next = h, int(s)
			}
		}
		if next < 0 {
			// Chain died: restart at the hottest unplaced block.
			var bh uint64
			for b := 0; b < n; b++ {
				if !placed[b] && blockHeat[b] > bh {
					bh, next = blockHeat[b], b
				}
			}
			if next < 0 {
				break
			}
		}
		place(next)
		cur = next
	}
	hot = len(order)
	for b := 0; b < n; b++ {
		if !placed[b] {
			order = append(order, b)
		}
	}
	return order, hot
}

// sortedSuccs returns id's successors in ascending block-id order (the
// graph's own successor order is terminator order, which is already
// deterministic, but ascending ids make the tie-break explicit).
func sortedSuccs(g *cfg.Graph, id cfg.NodeID) []cfg.NodeID {
	ss := g.Succs(id)
	out := make([]cfg.NodeID, len(ss))
	copy(out, ss)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
