package main

import (
	"fmt"
	"sort"
	"strings"

	"pathprof/internal/experiments"
)

// cellKey identifies one microbenchmark cell across two BENCH_pipeline.json
// files.
type cellKey struct {
	Name   string
	Bench  string
	Engine string
	Store  string
}

// refKey is the grid's slowest stable cell: every other cell is gated on
// its cost *relative to this one*, so the gate compares shapes, not
// absolute nanoseconds — a faster or slower CI box rescales every cell by
// the same factor and the ratios cancel. The reference itself is therefore
// ungated.
var refKey = cellKey{Name: "run", Engine: "tree", Store: "nested"}

func keyOf(r experiments.BenchResult) cellKey {
	return cellKey{Name: r.Name, Bench: r.Bench, Engine: r.Engine, Store: r.Store}
}

// index maps each result set by cell, remembering the reference cell's
// ns/op (0 when absent).
func index(rs []experiments.BenchResult) (map[cellKey]experiments.BenchResult, float64) {
	m := make(map[cellKey]experiments.BenchResult, len(rs))
	var ref float64
	for _, r := range rs {
		k := keyOf(r)
		m[k] = r
		if k.Name == refKey.Name && k.Engine == refKey.Engine && k.Store == refKey.Store {
			ref = r.NsPerOp
		}
	}
	return m, ref
}

// Gate compares a fresh measurement set against the committed baseline.
// For every "run" cell present in the baseline, the current set must
// contain the same cell (a vanished cell is a coverage regression) and the
// cell's cost normalized to the tree/nested reference cell must not exceed
// the baseline's normalized cost by more than threshold (0.20 = 20%).
// Both files must contain the reference cell. Returns one complaint per
// violation, sorted; empty means the gate passes.
func Gate(baseline, current []experiments.BenchResult, threshold float64) []string {
	base, baseRef := index(baseline)
	cur, curRef := index(current)

	if baseRef <= 0 {
		return []string{"baseline has no tree/nested run reference cell"}
	}
	if curRef <= 0 {
		return []string{"current has no tree/nested run reference cell"}
	}

	var out []string
	for k, b := range base {
		if !gated(k) {
			continue
		}
		c, ok := cur[k]
		if !ok {
			out = append(out, fmt.Sprintf(
				"run cell %s/%s disappeared from the measured grid", k.Engine, k.Store))
			continue
		}
		bn := b.NsPerOp / baseRef
		cn := c.NsPerOp / curRef
		if cn > bn*(1+threshold) {
			out = append(out, fmt.Sprintf(
				"run cell %s/%s regressed: %.3fx the tree/nested reference vs %.3fx committed (+%.0f%% > %.0f%% gate)",
				k.Engine, k.Store, cn, bn, (cn/bn-1)*100, threshold*100))
		}
	}
	sort.Strings(out)
	return out
}

// gated reports whether Gate compares cell k: every "run" cell but the
// reference. The steady, sweep and merge cells are informational.
func gated(k cellKey) bool {
	return k.Name == "run" && (k.Engine != refKey.Engine || k.Store != refKey.Store)
}

// gatedCells names the baseline cells Gate compares, as engine/store in sorted
// order.
func gatedCells(baseline []experiments.BenchResult) []string {
	base, _ := index(baseline)
	var out []string
	for k := range base {
		if gated(k) {
			out = append(out, k.Engine+"/"+k.Store)
		}
	}
	sort.Strings(out)
	return out
}

// passLine is what a passing gate prints: the cells it compared, and that
// it checks each only for a slowdown of its ratio to the reference.
func passLine(cells []string, threshold float64) string {
	return fmt.Sprintf("benchgate: %d run cells (%s) within +%.0f%% of their committed ratio to %s/%s",
		len(cells), strings.Join(cells, ", "), threshold*100, refKey.Engine, refKey.Store)
}
