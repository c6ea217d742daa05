package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pathprof/internal/bl"
	"pathprof/internal/interp"
	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
	"pathprof/internal/workload"
)

// factsInput is one program the fact-cache property test traces.
type factsInput struct {
	name string
	src  string
	seed uint64
}

// oracleCorpusInputs decodes the oracle's checked-in fuzz corpus — files
// whose first two values are the randprog generator seed and the
// interpreter seed — into distinct programs.
func oracleCorpusInputs(t *testing.T) []factsInput {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "oracle", "testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	var out []factsInput
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var gen, interpSeed int64
		if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\nint64(%d)\nint64(%d)\n", &gen, &interpSeed); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		key := [2]int64{gen, interpSeed}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, factsInput{
			name: fmt.Sprintf("corpus-gen%d-interp%d", gen, interpSeed),
			src:  randprog.SeedSource(gen),
			seed: uint64(interpSeed),
		})
	}
	if len(out) == 0 {
		t.Fatal("no oracle corpus files found")
	}
	return out
}

// TestPathFactsMatchAnalyzeLoop checks the tracer's per-path fact cache
// against bl.AnalyzeLoop: on the bundled programs and the oracle corpus,
// for every BL path a trace completes and every loop of its function, the
// cached full-sequence index equals the one bl.AnalyzeLoop derives, and
// the cached ending loop is the loop of the path's terminating backedge.
func TestPathFactsMatchAnalyzeLoop(t *testing.T) {
	var inputs []factsInput
	for _, wb := range workload.All() {
		inputs = append(inputs, factsInput{wb.Name, wb.Source, wb.Seed})
	}
	inputs = append(inputs, oracleCorpusInputs(t)...)
	checked := 0
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			prog, err := lang.Compile(in.src)
			if err != nil {
				t.Fatal(err)
			}
			info, err := profile.Analyze(prog, profile.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			m := interp.New(prog, in.seed)
			m.MaxSteps = randprog.MaxRunSteps
			tr := NewTracer(info, m)
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if tr.Err != nil {
				t.Fatal(tr.Err)
			}
			for f, prof := range tr.BL {
				fi := info.Funcs[f]
				for id := range prof {
					pf, ok := tr.facts[f].byID[id]
					if !ok {
						t.Fatalf("%s path %d completed but has no cached facts", fi.Fn.Name, id)
					}
					p, err := fi.DAG.PathForID(id)
					if err != nil {
						t.Fatal(err)
					}
					wantEnd := -1
					if be, ok := p.EndBackedge(); ok {
						wantEnd = fi.LoopOfBackedge[be].Index
					}
					if int(pf.endLoop) != wantEnd {
						t.Fatalf("%s path %d: cached end loop %d, want %d", fi.Fn.Name, id, pf.endLoop, wantEnd)
					}
					for _, li := range fi.Loops {
						want := -1
						if occ, ok := bl.AnalyzeLoop(p, li.LP, fi.DAG); ok && occ.Full && occ.SeqIndex >= 0 {
							want = occ.SeqIndex
						}
						if got := tr.fullSeq(fi, pf, li.Index); got != want {
							t.Fatalf("%s path %d loop %d: cached sequence %d, bl.AnalyzeLoop gives %d",
								fi.Fn.Name, id, li.Index, got, want)
						}
						checked++
					}
				}
			}
		})
	}
	if checked == 0 {
		t.Fatal("no (path, loop) facts checked")
	}
	t.Logf("%d programs, %d (path, loop) facts checked", len(inputs), checked)
}
