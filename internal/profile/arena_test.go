package profile_test

// Unit coverage for the dense-arena store: in-window increments land in the
// per-region arenas, out-of-window and indirect-site increments land in the
// overflow maps, and both materialize into the same canonical Counters a
// NestedStore produces. Whole-corpus cross-validation against the nested
// reference (on both engines) lives in the oracle battery.

import (
	"reflect"
	"testing"

	"pathprof/internal/lang"
	"pathprof/internal/profile"
)

func analyzeSrc(t *testing.T, src string) *profile.Info {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

const arenaSrc = `
func g(x) {
	var i = 0;
	while (i < x) {
		if (i % 2) { i = i + 1; } else { i = i + 2; }
	}
	return i;
}
func main() {
	var s = 0;
	var i = 0;
	while (i < 3) {
		s = s + g(i);
		i = i + 1;
	}
	print(s);
}
`

// TestArenaStoreMatchesNested drives an identical increment sequence
// through an arena store and a nested store and requires identical
// materialized counters — including keys outside every arena (negative,
// huge, wrong callee) that must route through overflow.
func TestArenaStoreMatchesNested(t *testing.T) {
	info := analyzeSrc(t, arenaSrc)
	a := profile.NewArenaStore(info, 2)
	n := profile.NewNestedStore(len(info.Funcs))

	keysLoop := []profile.LoopKey{
		{Func: 0, Loop: 0, Base: 0, Ext: 0, Full: true},
		{Func: 0, Loop: 0, Base: 0, Ext: 0, Full: false},
		{Func: 0, Loop: 0, Base: 1, Ext: 1, Full: true},
		{Func: 0, Loop: 0, Base: -1, Ext: 0, Full: true}, // overflow: negative base
		{Func: 0, Loop: 0, Base: 1 << 40, Ext: 0},        // overflow: huge base
		{Func: 0, Loop: 99, Base: 0, Ext: 0},             // overflow: no such loop
		{Func: 7, Loop: 0, Base: 0, Ext: 0},              // overflow: no such func
	}
	keysI := []profile.TypeIKey{
		{Caller: 1, Site: 0, Callee: 0, Prefix: 0, Ext: 0},
		{Caller: 1, Site: 0, Callee: 0, Prefix: 1, Ext: 0},
		{Caller: 1, Site: 0, Callee: 5, Prefix: 0, Ext: 0}, // overflow: callee mismatch
		{Caller: 1, Site: 9, Callee: 0, Prefix: 0, Ext: 0}, // overflow: no such site
	}
	keysII := []profile.TypeIIKey{
		{Caller: 1, Site: 0, Callee: 0, Path: 0, Ext: 0},
		{Caller: 1, Site: 0, Callee: 0, Path: 0, Ext: -3}, // overflow: negative route
	}
	keysCall := []profile.CallKey{
		{Caller: 1, Site: 0, Callee: 0},
		{Caller: 1, Site: 0, Callee: 42}, // overflow: no such callee
	}
	for _, s := range []profile.CounterStore{a, n} {
		s.IncBL(0, 0)
		s.IncBL(0, 0)
		s.IncBL(1, 1)
		s.IncBL(0, 1<<40) // sparse overlay
		s.IncBL(0, -1)    // sparse overlay: negative ids are out of window too
		for _, k := range keysLoop {
			s.IncLoop(k)
		}
		for _, k := range keysI {
			s.IncTypeI(k)
			s.IncTypeI(k)
		}
		for _, k := range keysII {
			s.IncTypeII(k)
		}
		for _, k := range keysCall {
			s.IncCall(k)
		}
	}
	if !reflect.DeepEqual(a.Counters(), n.Counters()) {
		t.Fatalf("arena materialization differs from nested:\narena:  %+v\nnested: %+v",
			a.Counters(), n.Counters())
	}
}

// TestArenaStoreMemoInvalidation checks increments after materialization
// refresh the cached Counters, in every counter family.
func TestArenaStoreMemoInvalidation(t *testing.T) {
	info := analyzeSrc(t, arenaSrc)
	s := profile.NewArenaStore(info, 2)
	lk := profile.LoopKey{Func: 0, Loop: 0, Base: 0, Ext: 0, Full: true}
	s.IncLoop(lk)
	if got := s.Counters().Loop[lk]; got != 1 {
		t.Fatalf("Loop[%v] = %d, want 1", lk, got)
	}
	s.IncLoop(lk)
	s.IncBL(0, 0)
	c := s.Counters()
	if c.Loop[lk] != 2 || c.BL[0][0] != 1 {
		t.Fatalf("stale materialization: %+v", c)
	}

	t1 := profile.TypeIKey{Caller: 1, Site: 0, Callee: 0, Prefix: 0, Ext: 0}
	t2 := profile.TypeIIKey{Caller: 1, Site: 0, Callee: 0, Path: 0, Ext: 0}
	ck := profile.CallKey{Caller: 1, Site: 0, Callee: 0}
	s.IncCall(ck)
	if got := s.Counters().Calls[ck]; got != 1 {
		t.Fatalf("stale materialization after IncCall: got %d, want 1", got)
	}
	s.IncTypeI(t1)
	if got := s.Counters().TypeI[t1]; got != 1 {
		t.Fatalf("stale materialization after IncTypeI: got %d, want 1", got)
	}
	s.IncTypeII(t2)
	if got := s.Counters().TypeII[t2]; got != 1 {
		t.Fatalf("stale materialization after IncTypeII: got %d, want 1", got)
	}
}
