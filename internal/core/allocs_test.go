package core

import (
	"testing"

	"pathprof/internal/workload"
)

// profileOLAllocs is each bundled program's allocation ceiling for one warm
// ProfileOL at its operating degree: the Run values and materializing
// Run.Counters (the counter maps, one per function and family, and their
// growth). The instrumented run itself allocates nothing.
var profileOLAllocs = map[string]float64{
	"130.li":       35,
	"099.go":       39,
	"134.perl":     30,
	"008.espresso": 24,
	"147.vortex":   35,
	"197.parser":   42,
	"181.mcf":      26,
	"300.twolf":    24,
	"126.gcc":      31,
}

// TestProfileOLAllocs pins a warm ProfileOL's allocations per bundled
// program exactly, at the degree the warm-runs benchmark profiles it
// (experiments.BenchRun.KChosen), so a change of a single allocation shows.
func TestProfileOLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, b := range workload.All() {
		s, err := Open(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		k := min(max((s.MaxDegree()+2)/3, 1), s.MaxDegree())
		var runErr error
		got := testing.AllocsPerRun(20, func() {
			if _, err := s.ProfileOL(b.Seed, k); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		want, ok := profileOLAllocs[b.Name]
		if !ok {
			t.Fatalf("%s: no allocation ceiling", b.Name)
		}
		if got > want {
			t.Errorf("%s at k=%d: %v allocs per ProfileOL, ceiling %v", b.Name, k, got, want)
		}
		t.Logf("%s at k=%d: %v allocs", b.Name, k, got)
	}
}
