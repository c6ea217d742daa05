package apps

import (
	"fmt"
	"sort"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
	"pathprof/internal/estimate"
	"pathprof/internal/ir"
	"pathprof/internal/profile"
)

// Interprocedural branch correlation: for a call edge, find callee branches
// whose direction is fixed along every proven (caller prefix ! callee path)
// pair for some prefix — the situation Bodik, Gupta & Soffa exploit to
// eliminate conditional branches across procedure boundaries, and the
// paper's second motivating application.

// BranchCorrelation is one eliminable-branch finding, rendered for humans.
type BranchCorrelation struct {
	Caller, Callee string
	Site           string
	// PrefixBlocks renders the caller path into the call.
	PrefixBlocks string
	// Branch is the callee predicate block whose outcome is fixed.
	Branch string
	// Taken is the successor always chosen along this prefix.
	Taken string
	// ProvenFlow is the guaranteed frequency (sum of pair lower bounds
	// through the branch for this prefix).
	ProvenFlow int64
}

// BranchFinding is one eliminable-branch finding in typed form — program
// indices and CFG node ids instead of rendered labels — the shape
// internal/pgo and future compiler passes consume directly.
type BranchFinding struct {
	// Caller and Callee are program function indices.
	Caller, Callee int
	// Site is the call site's index within the caller.
	Site int
	// Prefix is the caller path into the call, as block ids.
	Prefix []cfg.NodeID
	// Branch is the callee predicate block whose outcome is fixed.
	Branch cfg.NodeID
	// Taken is the successor always chosen along this prefix.
	Taken cfg.NodeID
	// ProvenFlow is the guaranteed frequency (sum of pair lower bounds
	// through the branch for this prefix).
	ProvenFlow int64
}

// BranchCorrelations inspects one (caller, site, callee) Type I estimate
// and reports callee branches decided by the caller-side prefix, as typed
// findings. Only branches with proven flow at least minFlow are reported.
// Findings are sorted by proven flow (descending), then prefix, branch,
// and taken successor, so equal inputs yield identical output.
func BranchCorrelations(info *profile.Info, caller *profile.FuncInfo,
	cs *profile.CallSiteInfo, calleeIdx int, r *estimate.InterResult, minFlow int64) ([]BranchFinding, error) {

	callee := info.Funcs[calleeIdx]
	ps, err := caller.Prefixes(cs)
	if err != nil {
		return nil, err
	}
	// For each prefix: aggregate, per callee predicate block, the proven
	// flow through each successor. Pairs come grouped by prefix.
	type flowKey struct {
		branch cfg.NodeID
		succ   cfg.NodeID
	}
	var out []BranchFinding
	flows := map[flowKey]int64{}
	byBranch := map[cfg.NodeID]int64{}
	for v := 0; v < r.Vars(); {
		pi, _, _, _ := r.Pair(v)
		clear(flows)
		clear(byBranch)
		for ; v < r.Vars(); v++ {
			p, qid, lb, _ := r.Pair(v)
			if p != pi {
				break
			}
			if lb <= 0 {
				continue
			}
			q, err := callee.DAG.PathForID(qid)
			if err != nil {
				return nil, err
			}
			for bi := 0; bi+1 < len(q.Blocks); bi++ {
				b := q.Blocks[bi]
				if isRealBranch(callee.Fn, b) {
					flows[flowKey{b, q.Blocks[bi+1]}] += lb
					byBranch[b] += lb
				}
			}
		}
		pr := ps.Items[pi]
		for k, f := range flows {
			if f < minFlow {
				continue
			}
			if f == byBranch[k.branch] {
				// Every proven traversal of this branch along
				// this prefix goes the same way.
				out = append(out, BranchFinding{
					Caller:     caller.Index,
					Callee:     calleeIdx,
					Site:       cs.Index,
					Prefix:     pr.Blocks,
					Branch:     k.branch,
					Taken:      k.succ,
					ProvenFlow: f,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ProvenFlow != out[j].ProvenFlow {
			return out[i].ProvenFlow > out[j].ProvenFlow
		}
		if c := compareBlocks(out[i].Prefix, out[j].Prefix); c != 0 {
			return c < 0
		}
		if out[i].Branch != out[j].Branch {
			return out[i].Branch < out[j].Branch
		}
		return out[i].Taken < out[j].Taken
	})
	return out, nil
}

// compareBlocks orders block sequences lexicographically.
func compareBlocks(a, b []cfg.NodeID) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// AnalyzeBranchCorrelation is the rendered-report wrapper around
// BranchCorrelations: the same findings with function names, block labels,
// and formatted prefixes, in the report's historical order.
func AnalyzeBranchCorrelation(info *profile.Info, caller *profile.FuncInfo,
	cs *profile.CallSiteInfo, calleeIdx int, r *estimate.InterResult, minFlow int64) ([]BranchCorrelation, error) {

	fs, err := BranchCorrelations(info, caller, cs, calleeIdx, r, minFlow)
	if err != nil {
		return nil, err
	}
	callee := info.Funcs[calleeIdx]
	out := make([]BranchCorrelation, 0, len(fs))
	for _, f := range fs {
		out = append(out, BranchCorrelation{
			Caller:       caller.Fn.Name,
			Callee:       callee.Fn.Name,
			Site:         caller.G.Label(cs.Block),
			PrefixBlocks: bl.FormatSeq(caller.G, f.Prefix),
			Branch:       callee.G.Label(f.Branch),
			Taken:        callee.G.Label(f.Taken),
			ProvenFlow:   f.ProvenFlow,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ProvenFlow != out[j].ProvenFlow {
			return out[i].ProvenFlow > out[j].ProvenFlow
		}
		if out[i].PrefixBlocks != out[j].PrefixBlocks {
			return out[i].PrefixBlocks < out[j].PrefixBlocks
		}
		return out[i].Branch < out[j].Branch
	})
	return out, nil
}

// isRealBranch reports whether block b of fn ends in a conditional branch.
func isRealBranch(fn *ir.Func, b cfg.NodeID) bool {
	_, ok := fn.Blocks[int(b)].Term.(ir.Branch)
	return ok
}

// FormatBranchCorrelations renders findings.
func FormatBranchCorrelations(cs []BranchCorrelation) string {
	var s string
	for _, c := range cs {
		s += fmt.Sprintf("%s@%s -> %s: along prefix %s, branch %s always takes %s (proven >= %d)\n",
			c.Caller, c.Site, c.Callee, c.PrefixBlocks, c.Branch, c.Taken, c.ProvenFlow)
	}
	return s
}
