package pgo_test

import (
	"bytes"
	"testing"

	"pathprof/internal/core"
	"pathprof/internal/instrument"
	"pathprof/internal/pgo"
	"pathprof/internal/pipeline"
	"pathprof/internal/workload"
)

// profileBenchmark runs one instrumented profile of b at degree k and
// returns its serialized bytes — the plan's input format.
func profileBenchmark(t *testing.T, p *pipeline.Pipeline, b *workload.Benchmark, k int) []byte {
	t.Helper()
	cfg := instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}
	run, err := p.Execute(cfg, b.Seed, nil)
	if err != nil {
		t.Fatalf("%s: profile run: %v", b.Name, err)
	}
	var buf bytes.Buffer
	if err := core.SaveRun(&buf, core.RunFromCounters(run.K, 2, run.Counters)); err != nil {
		t.Fatalf("%s: save run: %v", b.Name, err)
	}
	return buf.Bytes()
}

// loadProfile decodes serialized run bytes into derivation input.
func loadProfile(t *testing.T, raw []byte) *pgo.Profile {
	t.Helper()
	run, err := core.LoadRun(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("load run: %v", err)
	}
	return &pgo.Profile{K: run.K, Counters: run.Counters}
}

// TestPlanDeterminism is the repo's byte-identity discipline applied to
// the layout report on all 9 benchmarks: the same profile bytes must
// derive a byte-identical plan. The profile is decoded twice from the same
// bytes so map-iteration nondeterminism in derivation would get two
// independent chances to show.
func TestPlanDeterminism(t *testing.T) {
	for _, b := range workload.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			p, err := pipeline.New(prog, pipeline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			raw := profileBenchmark(t, p, b, 1)

			prof1, prof2 := loadProfile(t, raw), loadProfile(t, raw)
			plan1, err := pgo.Derive(p.Info, prof1)
			if err != nil {
				t.Fatalf("derive: %v", err)
			}
			plan2, err := pgo.Derive(p.Info, prof2)
			if err != nil {
				t.Fatalf("derive: %v", err)
			}
			var enc1, enc2 bytes.Buffer
			if err := plan1.Encode(&enc1); err != nil {
				t.Fatal(err)
			}
			if err := plan2.Encode(&enc2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
				t.Fatalf("same profile bytes derived different plans:\n%s\n---\n%s", enc1.String(), enc2.String())
			}

			// The plan must actually reorder something on a profiled
			// benchmark — a layout report that never moves code says
			// nothing.
			if plan1.Reordered() == 0 {
				t.Fatalf("%s: plan reordered no functions", b.Name)
			}
		})
	}
}

// TestDeriveRejectsMismatchedProfile pins the mismatch guard: a profile
// whose function count disagrees with the program must refuse to derive
// instead of producing a silently wrong plan.
func TestDeriveRejectsMismatchedProfile(t *testing.T) {
	b := workload.ByName("300.twolf")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(prog, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw := profileBenchmark(t, p, b, 1)
	prof := loadProfile(t, raw)
	prof.Counters.BL = prof.Counters.BL[:1]
	if _, err := pgo.Derive(p.Info, prof); err == nil {
		t.Fatal("Derive accepted a profile with the wrong function count")
	}
}
