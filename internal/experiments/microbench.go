package experiments

// Microbenchmark harness behind `experiments -bench-json`: measures the
// pipeline's per-run cost on every (engine, store) cell, the register
// engine's pooled steady state, and the full degree sweep on both
// engines, then emits the measurements as machine-readable JSON
// (BENCH_pipeline.json) so CI can archive the numbers next to each build.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pathprof/internal/instrument"
	"pathprof/internal/merge"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/workload"
)

// BenchResult is one measured microbenchmark cell.
type BenchResult struct {
	// Name is the benchmark kind: "run" (one instrumented execution at
	// k = max/3), "steady" (the same execution on a pooled machine and a
	// reused store), "sweep" (compile + analyze + trace + every degree) or
	// "merge" (folding shard snapshots).
	Name string `json:"name"`
	// Bench is the workload the cell ran.
	Bench string `json:"bench"`
	// Engine and Store identify the cell ("sweep" cells fix the store to
	// the collection default).
	Engine string `json:"engine"`
	Store  string `json:"store"`
	// Iterations is how many times the cell ran; the per-op figures
	// average over them.
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// measure times fn over iters runs, charging wall clock and heap traffic.
func measure(name, bench, engine, store string, iters int, fn func() error) (BenchResult, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return BenchResult{}, fmt.Errorf("%s[%s/%s/%s]: %w", name, bench, engine, store, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return BenchResult{
		Name: name, Bench: bench, Engine: engine, Store: store, Iterations: iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// Microbench measures benchName across the engine x store grid at
// k = max/3 plus a full degree sweep per engine, iters iterations per cell
// (<= 0 picks a small default). The per-run cells share one warmed
// pipeline, so they measure execution cost, not plan or code
// construction.
func Microbench(benchName string, iters int) ([]BenchResult, error) {
	if iters <= 0 {
		iters = 3
	}
	wb := workload.ByName(benchName)
	if wb == nil {
		return nil, fmt.Errorf("experiments: no benchmark %q", benchName)
	}
	engines := []pipeline.Engine{pipeline.EngineTree, pipeline.EngineReg}
	stores := []profile.StoreKind{profile.StoreNested, profile.StoreArena}

	prog, err := wb.Compile()
	if err != nil {
		return nil, err
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		return nil, err
	}
	k := (p.Info.MaxDegree() + 2) / 3
	cfg := instrument.Config{K: k, Loops: true, Interproc: true}
	// Warm the shared artifacts (plan, register code) outside the timed
	// region.
	if _, err := p.RegCode(cfg); err != nil {
		return nil, err
	}

	var out []BenchResult
	for _, eng := range engines {
		for _, st := range stores {
			res, err := measure("run", wb.Name, eng.String(), st.String(), iters, func() error {
				_, err := p.ExecuteStore(eng, cfg, wb.Seed, nil, profile.NewStore(st, p.Info), 0)
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		}
	}
	// The steady-state cell is the register engine's zero-alloc claim in the
	// archived numbers: one pooled machine and one arena store reused across
	// every iteration (counters accumulate; only timing and heap traffic are
	// read). A warm-up run outside the timed region pays the pool's one-time
	// machine allocation and the first run's slab growth.
	{
		store := profile.NewStore(profile.StoreArena, p.Info)
		if err := p.ExecuteSteady(cfg, wb.Seed, store); err != nil {
			return nil, err
		}
		res, err := measure("steady", wb.Name, pipeline.EngineReg.String(), profile.StoreArena.String(), iters, func() error {
			return p.ExecuteSteady(cfg, wb.Seed, store)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	pool := pipeline.NewPool(1)
	for _, eng := range engines {
		eng := eng
		res, err := measure("sweep", wb.Name, eng.String(), DefaultStore.String(), iters, func() error {
			_, err := CollectWithOptions(wb, pool, DefaultStore, eng)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}

	// Merge cells: fold mergeShards pre-collected shard snapshots — the
	// aggregation service's hot path — once as pure snapshot algebra
	// (store "snapshot") and once through each layout's bulk-add path,
	// materialization included. Shard collection happens outside the
	// timed region.
	const mergeShards = 8
	snaps := make([]*merge.Snapshot, mergeShards)
	for i := range snaps {
		r, err := p.ExecuteStore(pipeline.EngineReg, cfg, wb.Seed+uint64(i), nil,
			profile.NewStore(profile.StoreNested, p.Info), 0)
		if err != nil {
			return nil, err
		}
		snaps[i] = merge.New(k, 2, r.Counters)
	}
	res, err := measure("merge", wb.Name, pipeline.EngineReg.String(), "snapshot", iters, func() error {
		_, err := merge.MergeAll(snaps...)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, res)
	for _, st := range stores {
		st := st
		res, err := measure("merge", wb.Name, pipeline.EngineReg.String(), st.String(), iters, func() error {
			dst := profile.NewStore(st, p.Info)
			for _, s := range snaps {
				if err := merge.IntoStore(dst, s); err != nil {
					return err
				}
			}
			dst.Counters()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteBenchJSON writes results to path as indented JSON.
func WriteBenchJSON(path string, results []BenchResult) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
