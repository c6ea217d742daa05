package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"pathprof/internal/experiments"
)

func cell(name, engine, store string, iters int, ns float64) experiments.BenchResult {
	return experiments.BenchResult{
		Name: name, Bench: "300.twolf", Engine: engine, Store: store,
		Iters: iters, NsPerOp: ns,
	}
}

func grid(scale float64) []experiments.BenchResult {
	return []experiments.BenchResult{
		cell("run", "tree", "nested", 2, 24e6*scale),
		cell("run", "tree", "arena", 2, 20e6*scale),
		cell("run", "regvm", "arena", 2, 2.4e6*scale),
		cell("steady", "regvm", "arena", 2, 2.4e6*scale),
		cell("sweep", "tree", "arena", 0, 250e6*scale),
	}
}

func TestGatePassesIdenticalAndRescaled(t *testing.T) {
	base := grid(1)
	// A 3x slower box rescales every cell uniformly: the ratios to the
	// reference cell are unchanged and the gate must stay green.
	for _, cur := range [][]experiments.BenchResult{grid(1), grid(3)} {
		if got := Gate(base, cur, 0.20); len(got) != 0 {
			t.Fatalf("gate complained on an unregressed grid:\n%s", strings.Join(got, "\n"))
		}
	}
}

func TestGateCatchesRelativeRegression(t *testing.T) {
	base := grid(1)
	cur := grid(1)
	cur[2].NsPerOp *= 1.5 // regvm/arena run: +50% while the reference holds
	got := Gate(base, cur, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "regvm/arena/iters=2 regressed") {
		t.Fatalf("regressed cell not caught: %v", got)
	}
}

func TestGateToleratesWithinThreshold(t *testing.T) {
	base := grid(1)
	cur := grid(1)
	cur[2].NsPerOp *= 1.15 // +15% is inside the 20% gate
	if got := Gate(base, cur, 0.20); len(got) != 0 {
		t.Fatalf("gate complained inside the threshold: %v", got)
	}
}

func TestGateIgnoresNonRunCells(t *testing.T) {
	base := grid(1)
	cur := grid(1)
	cur[4].NsPerOp *= 10 // sweep cells are informational, not gated
	if got := Gate(base, cur, 0.20); len(got) != 0 {
		t.Fatalf("gate complained on a non-run cell: %v", got)
	}
}

func TestGateCatchesVanishedCell(t *testing.T) {
	base := grid(1)
	cur := grid(1)[:2] // regvm run cell gone
	got := Gate(base, cur, 0.20)
	if len(got) != 1 || !strings.Contains(got[0], "regvm/arena/iters=2 disappeared") {
		t.Fatalf("vanished cell not caught: %v", got)
	}
}

func TestGateRequiresReferenceCell(t *testing.T) {
	base := grid(1)
	if got := Gate(base[1:], grid(1), 0.20); len(got) != 1 || !strings.Contains(got[0], "baseline has no") {
		t.Fatalf("missing baseline reference not caught: %v", got)
	}
	if got := Gate(base, grid(1)[1:], 0.20); len(got) != 1 || !strings.Contains(got[0], "current has no") {
		t.Fatalf("missing current reference not caught: %v", got)
	}
}

// TestCommittedGridGatesItself pins the committed BENCH_pipeline.json: it
// must contain the reference cell and pass its own gate, so the CI check
// can never be red on an untouched tree, and its iters=2 run cells must be
// exactly the tree/regvm x nested/arena grid the microbenchmark measures.
func TestCommittedGridGatesItself(t *testing.T) {
	rs, err := load("../../../BENCH_pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := Gate(rs, rs, 0.20); len(got) != 0 {
		t.Fatalf("committed grid fails its own gate:\n%s", strings.Join(got, "\n"))
	}
	var runs []string
	for _, r := range rs {
		if r.Name == "run" && r.Iters == 2 {
			runs = append(runs, r.Engine+"/"+r.Store)
		}
	}
	sort.Strings(runs)
	if want := []string{"regvm/arena", "regvm/nested", "tree/arena", "tree/nested"}; !reflect.DeepEqual(runs, want) {
		t.Fatalf("committed grid's iters=2 run cells are %v, want %v", runs, want)
	}
}
