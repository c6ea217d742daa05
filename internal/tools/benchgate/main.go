// Command benchgate fails the build when an engine × store "run" cell of a
// freshly measured BENCH_pipeline.json regresses more than the threshold
// against the committed numbers. Cells are compared as ratios to the
// tree/nested reference cell, not as raw nanoseconds, so the gate is
// insensitive to how fast the CI box happens to be: only the *shape* of
// the grid — regvm and the arena beating the tree and nested references by
// the committed margins — is enforced. A cell that vanishes from the
// measured grid also fails.
//
// CI runs it in the bench-smoke job after regenerating the grid:
//
//	go run ./cmd/experiments -bench-json BENCH_fresh.json -bench-n 3
//	go run ./internal/tools/benchgate -current BENCH_fresh.json
//
// Flags: -baseline (default BENCH_pipeline.json, the committed numbers),
// -current (required, the fresh measurement), -threshold (allowed relative
// regression, default 0.20).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pathprof/internal/experiments"
)

func load(path string) ([]experiments.BenchResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []experiments.BenchResult
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_pipeline.json", "committed benchmark numbers")
	current := flag.String("current", "", "freshly measured benchmark numbers (required)")
	threshold := flag.Float64("threshold", 0.20, "allowed relative regression per run cell")
	flag.Parse()

	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	complaints := Gate(base, cur, *threshold)
	for _, c := range complaints {
		fmt.Println(c)
	}
	if len(complaints) > 0 {
		os.Exit(1)
	}
	fmt.Println(passLine(gatedCells(base), *threshold))
}
