package profile_test

// Unit coverage of the CounterStore contract through NewStore, on every
// kept layout: increments outside the arena's dense BL window land in its
// sparse overlay, and increments after a materialization refresh it. The
// test names date from the flat layout, whose dense window, overlay and
// memo the arena took over; the cases are the flat store's. Whole-corpus
// cross-validation lives in the oracle battery (TestOracleBattery and
// TestOracleSparseOverlayBoundary).

import (
	"testing"

	"pathprof/internal/lang"
	"pathprof/internal/profile"
)

var storeKinds = []profile.StoreKind{profile.StoreArena, profile.StoreNested}

// TestFlatStoreDenseFallback drives the out-of-range/fallback path
// directly: increments beyond the dense window must land in the sparse
// overlay and still materialize correctly.
func TestFlatStoreDenseFallback(t *testing.T) {
	src := `
func main() {
	var x = 0;
	if (x < 1) { x = x + 1; } else { x = x + 2; }
	print(x);
}
`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range storeKinds {
		s := profile.NewStore(kind, info, 2)
		s.IncBL(0, 0)
		s.IncBL(0, 0)
		s.IncBL(0, 1<<40) // far outside any dense window
		c := s.Counters()
		if c.BL[0][0] != 2 || c.BL[0][1<<40] != 1 {
			t.Fatalf("%v: unexpected BL counters: %v", kind, c.BL[0])
		}
		// Mutating after materialization must invalidate the memo.
		s.IncBL(0, 0)
		if got := s.Counters().BL[0][0]; got != 3 {
			t.Fatalf("%v: stale materialization: got %d, want 3", kind, got)
		}
		// Negative ids are as out-of-window as huge ones.
		s.IncBL(0, -1)
		if got := s.Counters().BL[0][-1]; got != 1 {
			t.Fatalf("%v: negative-id increment lost: got %d, want 1", kind, got)
		}
	}
}

// TestFlatStoreTupleFamilies covers the non-BL increment paths and their
// memo invalidation.
func TestFlatStoreTupleFamilies(t *testing.T) {
	src := `
func f(x) { return x; }
func main() { print(f(1)); }
`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	lk := profile.LoopKey{Func: 0, Loop: 0, Base: 1, Ext: 2, Full: true}
	t1 := profile.TypeIKey{Caller: 1, Site: 0, Callee: 0, Prefix: 3, Ext: 4}
	t2 := profile.TypeIIKey{Caller: 1, Site: 0, Callee: 0, Path: 5, Ext: 6}
	ck := profile.CallKey{Caller: 1, Site: 0, Callee: 0}
	for _, kind := range storeKinds {
		s := profile.NewStore(kind, info, 2)
		s.IncLoop(lk)
		s.IncTypeI(t1)
		s.IncTypeII(t2)
		s.IncCall(ck)
		c := s.Counters()
		if c.Loop[lk] != 1 || c.TypeI[t1] != 1 || c.TypeII[t2] != 1 || c.Calls[ck] != 1 {
			t.Fatalf("%v: tuple increments lost: %+v", kind, c)
		}
		s.IncCall(ck)
		if got := s.Counters().Calls[ck]; got != 2 {
			t.Fatalf("%v: stale materialization after IncCall: got %d, want 2", kind, got)
		}
	}
}
