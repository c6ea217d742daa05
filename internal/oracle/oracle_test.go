package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"pathprof/internal/oracle"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
)

// batterySeeds is the number of fully validated randprog programs the
// battery must cover (the acceptance floor of the oracle subsystem).
const batterySeeds = 40

// TestOracleBattery runs the complete metamorphic invariant battery —
// counter equivalence against trace ground truth, OL-0 == BL, store and
// engine equivalence (regvm vs the tree reference, arena vs the nested
// reference), first-crossing folds of widened profiles, bound bracketing
// and monotone tightening, serialization round-trips, sequential/parallel
// sweep identity, and split/merge identity — over the harvested randprog
// corpus at k in {0, 1, 2} and window widths iters in {2, 3, 4} under both
// counter stores and both engines.
func TestOracleBattery(t *testing.T) {
	target := batterySeeds
	if testing.Short() {
		target = 8
	}
	seeds, err := randprog.HarvestCorpus(target, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		s := s
		t.Run(fmt.Sprintf("seed%d", s.GenSeed), func(t *testing.T) {
			t.Parallel()
			res, err := oracle.CheckSeed(s.GenSeed, oracle.Config{})
			if err != nil {
				t.Fatalf("seed %d: %v\n--- source ---\n%s", s.GenSeed, err, randprog.SeedSource(s.GenSeed))
			}
			if res.Skipped {
				t.Fatalf("seed %d: harvested (steps=%d) but oracle skipped at %d steps",
					s.GenSeed, s.Steps, res.Steps)
			}
			if err := res.Err(); err != nil {
				t.Fatalf("seed %d: %v\n--- source ---\n%s", s.GenSeed, err, randprog.SeedSource(s.GenSeed))
			}
			// 3 degrees x 3 widths x 2 stores x 2 engines, sequential +
			// parallel sweeps, plus the merge cell's 3 widths x 2 stores
			// x 3 chunks x (split + concatenated) runs.
			if want := 2*(3*3*2*2) + 3*2*3*2; res.Runs != want {
				t.Fatalf("seed %d: %d instrumented runs, want %d", s.GenSeed, res.Runs, want)
			}
		})
	}
}

// sparseBoundarySource builds a program whose main has more than
// profile.DenseBLLimit (2^16) static Ball-Larus paths: 17 consecutive
// if-else diamonds give 2^17 paths, so the arena store must refuse the
// dense BL vector and route every BL increment through the sparse overlay.
func sparseBoundarySource() string {
	var b strings.Builder
	b.WriteString("var gv0;\n\nfunc main() {\n\tvar x = 0;\n")
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&b, "\tif (rand(2) == 0) { x = x + %d; } else { x = x - 1; }\n", i+1)
	}
	b.WriteString("\tprint(x);\n}\n")
	return b.String()
}

// TestOracleSparseOverlayBoundary is the cross-store equivalence check at
// the sparse overlay boundary: on a program with > 2^16 BL paths the
// arena's BL vector takes the DenseBLLimit overlay (a sparse map), and the
// oracle battery must still prove it identical to the nested store,
// byte-for-byte.
func TestOracleSparseOverlayBoundary(t *testing.T) {
	src := sparseBoundarySource()
	p, err := pipeline.Compile(src, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if total := p.Info.Funcs[0].DAG.Total(); total <= profile.DenseBLLimit {
		t.Fatalf("boundary program has only %d BL paths, need > %d", total, profile.DenseBLLimit)
	}
	res, err := oracle.Check(p, 12345, oracle.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		t.Fatalf("boundary program skipped at %d steps", res.Steps)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleConfigSubsets exercises the narrowed check configurations the
// fuzz targets use: each family must run (and pass) in isolation.
func TestOracleConfigSubsets(t *testing.T) {
	seeds, err := randprog.HarvestCorpus(1, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	genSeed := seeds[0].GenSeed
	for name, checks := range map[string]oracle.Checks{
		"counters":  oracle.CheckCounters,
		"stores":    oracle.CheckStores,
		"estimates": oracle.CheckEstimates,
		"serialize": oracle.CheckSerialization,
		"parallel":  oracle.CheckParallel,
	} {
		t.Run(name, func(t *testing.T) {
			res, err := oracle.CheckSeed(genSeed, oracle.Config{Checks: checks})
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped {
				t.Fatal("harvested seed must not skip")
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
