// Command gencorpus regenerates the checked-in fuzz seed corpus under
// internal/oracle/testdata/fuzz/ from the standard randprog sweep: it
// harvests the generator seeds whose programs fit the oracle step budget
// and writes one Go-fuzz corpus file per (target, seed), cycling the degree
// through {0, 1, 2} so every target's corpus covers every profiled degree.
//
// Usage: go run ./internal/oracle/gencorpus [-n seedsPerTarget] [-dir root]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pathprof/internal/randprog"
)

func main() {
	n := flag.Int("n", 12, "corpus entries per fuzz target")
	dir := flag.String("dir", "internal/oracle/testdata/fuzz", "corpus root directory")
	flag.Parse()

	seeds, err := randprog.HarvestCorpus(*n, randprog.MaxOracleSteps)
	if err != nil {
		log.Fatal(err)
	}
	for _, target := range []string{"FuzzPipeline", "FuzzEstimateBounds", "FuzzSerializeRoundTrip", "FuzzMergeSplit"} {
		tdir := filepath.Join(*dir, target)
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\nint64(%d)\nint64(%d)\nint(%d)\n",
				s.GenSeed, s.GenSeed, i%3)
			name := filepath.Join(tdir, fmt.Sprintf("seed-%03d", s.GenSeed))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("%s: %d corpus files\n", tdir, len(seeds))
	}
}
