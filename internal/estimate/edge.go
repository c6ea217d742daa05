package estimate

import (
	"fmt"

	"pathprof/internal/bl"
	"pathprof/internal/bounds"
	"pathprof/internal/profile"
)

// This file implements the estimation technique the paper positions itself
// against (Section 1): deriving bounds on Ball-Larus *path* frequencies from
// an *edge* profile, after Ball, Mataga & Sagiv, "Edge Profiling versus Path
// Profiling: The Showdown" (POPL '98). The paper's overlapping-path
// estimators are "analogous" to it, one level up: edges→paths there,
// paths→interesting-paths here. Having both in one codebase lets the
// evaluation show the analogy quantitatively.

// EdgeProfile holds per-DAG-edge traversal counts for one function
// (including the dummy edges, whose counts an edge profiler obtains from
// the loop entry/backedge counters).
type EdgeProfile struct {
	// Counts is indexed by DAGEdge.Index.
	Counts []int64
}

// EdgeProfileFromPaths folds a BL path profile into the edge profile an
// edge profiler would have collected on the same run.
func EdgeProfileFromPaths(d *bl.DAG, paths map[int64]uint64) (*EdgeProfile, error) {
	ep := &EdgeProfile{Counts: make([]int64, len(d.Edges))}
	for id, n := range paths {
		p, err := d.PathForID(id)
		if err != nil {
			return nil, err
		}
		for _, e := range p.Edges {
			ep.Counts[e.Index] += int64(n)
		}
	}
	return ep, nil
}

// EdgeToPathResult bounds every BL path's frequency from an edge profile.
type EdgeToPathResult struct {
	// Res holds per-path bounds, aligned with IDs.
	Res *bounds.Result
	// N is the path count.
	N int
	// IDs aligns variable indices with BL path ids.
	IDs []int64
}

// Definite returns the sum of lower bounds.
func (r *EdgeToPathResult) Definite() int64 { return r.Res.Definite() }

// Potential returns the sum of upper bounds.
func (r *EdgeToPathResult) Potential() int64 { return r.Res.Potential() }

// Exact returns the number of paths with equal bounds.
func (r *EdgeToPathResult) Exact() int { return r.Res.Exact() }

// EdgeToPaths estimates BL path frequencies from an edge profile: one
// equality group per DAG edge (every traversal belongs to exactly one path
// instance), with each path capped by the scarcest edge it crosses.
func EdgeToPaths(fi *profile.FuncInfo, ep *EdgeProfile, maxPaths int64) (*EdgeToPathResult, error) {
	if fi.DAG.Total() > maxPaths {
		return nil, ErrTooLarge
	}
	paths, err := fi.DAG.EnumeratePaths(maxPaths)
	if err != nil {
		return nil, err
	}
	n := len(paths)
	prob := &bounds.Problem{N: n, Caps: make([]int64, n)}
	ids := make([]int64, n)

	// Group membership per edge.
	edgeVars := make([][]int, len(fi.DAG.Edges))
	for vi, p := range paths {
		ids[vi] = p.ID
		cap := bounds.Inf
		for _, e := range p.Edges {
			edgeVars[e.Index] = append(edgeVars[e.Index], vi)
			if c := ep.Counts[e.Index]; c < cap {
				cap = c
			}
		}
		if len(p.Edges) == 0 {
			// Single-block function: its one path runs once per
			// activation; without edges the profile carries no
			// information, so leave the variable unbounded.
			cap = bounds.Inf
		}
		prob.Caps[vi] = cap
	}
	for ei, vars := range edgeVars {
		if len(vars) == 0 {
			continue
		}
		prob.Groups = append(prob.Groups, bounds.Group{
			Vars: vars, Value: ep.Counts[ei], Equality: true,
		})
	}
	res, err := bounds.Solve(prob)
	if err != nil {
		return nil, err
	}
	return &EdgeToPathResult{Res: res, N: n, IDs: ids}, nil
}

// EdgeVsPathSummary aggregates the showdown over a whole program: how much
// real path flow the edge profile pins down.
type EdgeVsPathSummary struct {
	// Real is the total number of dynamic BL path instances.
	Real int64
	// Definite and Potential are the summed bounds.
	Definite, Potential int64
	// Vars and Exact count paths and exactly-pinned paths.
	Vars, Exact int
	// Skipped counts functions over the enumeration limit.
	Skipped int
}

// EdgeVsPaths runs the edge→path estimation on every function.
func EdgeVsPaths(info *profile.Info, blProfiles []map[int64]uint64) (EdgeVsPathSummary, error) {
	var out EdgeVsPathSummary
	for fidx, fi := range info.Funcs {
		prof := blProfiles[fidx]
		for _, c := range prof {
			out.Real += int64(c)
		}
		if len(prof) == 0 {
			continue // never executed
		}
		ep, err := EdgeProfileFromPaths(fi.DAG, prof)
		if err != nil {
			return out, err
		}
		res, err := EdgeToPaths(fi, ep, info.Limits.MaxPathsPerFunc)
		if err == ErrTooLarge {
			out.Skipped++
			continue
		}
		if err != nil {
			return out, fmt.Errorf("estimate: edge->path %s: %w", fi.Fn.Name, err)
		}
		out.Definite += res.Definite()
		out.Potential += res.Potential()
		out.Vars += res.N
		out.Exact += res.Exact()
	}
	return out, nil
}
