package oracle_test

// Native Go fuzz targets over the differential oracle. An input is a
// (generator-seed, interpreter-seed, degree) tuple decoded into a randprog
// program; the checked-in corpus under testdata/fuzz/ is harvested from the
// standard 60-seed randprog sweep (regenerate with
// `go run ./internal/oracle/gencorpus`). Run with, e.g.:
//
//	go test ./internal/oracle -run '^$' -fuzz '^FuzzPipeline$' -fuzztime 30s
//
// Each target narrows the battery to one invariant family so a fuzz
// execution stays fast and a crash names the broken invariant directly.

import (
	"testing"

	"pathprof/internal/oracle"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
)

// clampK folds an arbitrary fuzzed degree into the profiled range {0,1,2}.
func clampK(k int) int {
	return ((k % 3) + 3) % 3
}

// fuzzOracle decodes one fuzz input and runs the selected battery slice.
func fuzzOracle(t *testing.T, genSeed, interpSeed int64, cfg oracle.Config) {
	t.Helper()
	src := randprog.SeedSource(genSeed)
	res, err := oracle.CheckSource(src, uint64(interpSeed), cfg)
	if err != nil {
		t.Fatalf("gen=%d interp=%d: %v\n--- source ---\n%s", genSeed, interpSeed, err, src)
	}
	if res.Skipped {
		t.Skip("program exceeds the oracle step budget")
	}
	if err := res.Err(); err != nil {
		t.Fatalf("gen=%d interp=%d: %v\n--- source ---\n%s", genSeed, interpSeed, err, src)
	}
}

// FuzzPipeline cross-validates instrumented counters against the
// interpreter-driven trace, key for key, under both counter stores.
func FuzzPipeline(f *testing.F) {
	f.Add(int64(1), int64(1), 0)
	f.Add(int64(3), int64(3), 1)
	f.Add(int64(5), int64(7), 2)
	f.Fuzz(func(t *testing.T, genSeed, interpSeed int64, k int) {
		fuzzOracle(t, genSeed, interpSeed, oracle.Config{
			Ks:     []int{clampK(k)},
			Checks: oracle.CheckCounters | oracle.CheckStores,
		})
	})
}

// FuzzEstimateBounds validates that the flow equations bracket real
// interesting-path flow and tighten monotonically from the BL baseline
// through degree k.
func FuzzEstimateBounds(f *testing.F) {
	f.Add(int64(1), int64(1), 1)
	f.Add(int64(4), int64(4), 2)
	f.Add(int64(6), int64(2), 0)
	f.Fuzz(func(t *testing.T, genSeed, interpSeed int64, k int) {
		ks := []int{0, clampK(k)}
		if ks[1] == 0 {
			ks = ks[:1]
		}
		fuzzOracle(t, genSeed, interpSeed, oracle.Config{
			Ks:     ks,
			Stores: []profile.StoreKind{profile.StoreNested},
			Checks: oracle.CheckEstimates,
		})
	})
}

// FuzzSerializeRoundTrip validates byte-stable serialization across stores
// and lossless round-trips at degree k.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(1), 0)
	f.Add(int64(2), int64(9), 2)
	f.Add(int64(8), int64(8), 1)
	f.Fuzz(func(t *testing.T, genSeed, interpSeed int64, k int) {
		fuzzOracle(t, genSeed, interpSeed, oracle.Config{
			Ks:     []int{clampK(k)},
			Checks: oracle.CheckSerialization,
		})
	})
}

// FuzzMergeSplit validates the aggregation invariant: chunked runs folded
// through internal/merge serialize byte-identically to the concatenated
// run, at degree k across every store layout.
func FuzzMergeSplit(f *testing.F) {
	f.Add(int64(1), int64(1), 1)
	f.Add(int64(5), int64(2), 0)
	f.Add(int64(9), int64(9), 2)
	f.Fuzz(func(t *testing.T, genSeed, interpSeed int64, k int) {
		fuzzOracle(t, genSeed, interpSeed, oracle.Config{
			Ks:     []int{clampK(k)},
			Checks: oracle.CheckMerge,
		})
	})
}
