package oracle

// White-box self-test: the battery must have teeth. A checker whose run
// matrix is corrupted after the sweep must report violations in every
// family the corruption touches — otherwise the oracle would pass builds it
// should fail.

import (
	"testing"

	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/randprog"
)

// tamperedChecker builds a checker over a healthy harvested program, runs
// the ground-truth pass and the sequential sweep, then hands the matrix to
// the caller for corruption.
func tamperedChecker(t *testing.T) *checker {
	t.Helper()
	seeds, err := randprog.HarvestCorpus(1, randprog.MaxOracleSteps)
	if err != nil {
		t.Fatal(err)
	}
	genSeed := seeds[0].GenSeed
	p, err := pipeline.Compile(randprog.SeedSource(genSeed), pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &checker{p: p, seed: uint64(genSeed), cfg: Config{}.withDefaults(), res: &Result{}}
	if err := c.ground(); err != nil {
		t.Fatal(err)
	}
	if c.res.Skipped {
		t.Fatal("harvested seed must not skip")
	}
	if err := c.sweep(); err != nil {
		t.Fatal(err)
	}
	return c
}

func firstBLKey(c *profile.Counters) (int, int64) {
	for f, m := range c.BL {
		for id := range m {
			return f, id
		}
	}
	return -1, -1
}

func TestBatteryDetectsCounterCorruption(t *testing.T) {
	c := tamperedChecker(t)
	// Drop one BL increment from a single cell: the counter invariant
	// must fire for that cell.
	victim := cell{k: c.cfg.Ks[0], iters: c.cfg.Iters[0], kind: c.cfg.Stores[0]}
	f, id := firstBLKey(c.counters[victim])
	if f < 0 {
		t.Fatal("no BL counters to corrupt")
	}
	c.counters[victim].BL[f][id]++
	if err := c.checkCounters(); err != nil {
		t.Fatal(err)
	}
	if len(c.res.Violations) == 0 {
		t.Fatal("corrupted BL counter went undetected")
	}
	for _, v := range c.res.Violations {
		if v.Invariant == "counters/bl" {
			return
		}
	}
	t.Fatalf("no counters/bl violation among: %v", c.res.Violations)
}

func TestBatteryDetectsStoreDivergence(t *testing.T) {
	c := tamperedChecker(t)
	// Corrupt only the arena-store cell at one degree: store equivalence
	// must fire.
	victim := cell{k: c.cfg.Ks[0], iters: c.cfg.Iters[0], kind: profile.StoreArena, eng: pipeline.EngineReg}
	f, id := firstBLKey(c.counters[victim])
	if f < 0 {
		t.Fatal("no BL counters to corrupt")
	}
	c.counters[victim].BL[f][id] += 7
	c.checkStores()
	if len(c.res.Violations) == 0 {
		t.Fatal("store divergence went undetected")
	}
	if c.res.Violations[0].Invariant != "stores" {
		t.Fatalf("unexpected violation: %v", c.res.Violations[0])
	}
}

func TestBatteryDetectsSerializationDrift(t *testing.T) {
	c := tamperedChecker(t)
	// Corrupt the serialized bytes of one cell: both the cross-store
	// byte comparison and the round-trip must fire.
	victim := cell{k: c.cfg.Ks[0], iters: c.cfg.Iters[0], kind: profile.StoreArena, eng: pipeline.EngineReg}
	raw := append([]byte(nil), c.serialized[victim]...)
	raw[len(raw)/2] ^= 0xff
	c.serialized[victim] = raw
	c.checkSerialization()
	if len(c.res.Violations) == 0 {
		t.Fatal("serialization drift went undetected")
	}
}

func TestBatteryDetectsParallelDivergence(t *testing.T) {
	c := tamperedChecker(t)
	// Corrupt the sequential baseline of one cell: the parallel re-run
	// (which is healthy) must mismatch it.
	victim := cell{k: c.cfg.Ks[0], iters: c.cfg.Iters[0], kind: c.cfg.Stores[0]}
	c.serialized[victim] = []byte("corrupted baseline")
	if err := c.checkParallel(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range c.res.Violations {
		if v.Invariant == "parallel" {
			found = true
		}
	}
	if !found {
		t.Fatalf("parallel divergence went undetected: %v", c.res.Violations)
	}
}

// iterCorruptionSource is a handcrafted program whose main loop runs many
// consecutive iterations, guaranteeing the widened (iters > 2) cells hold
// multi-crossing loop keys to corrupt.
const iterCorruptionSource = `func main() {
	var s = 0;
	for (var i = 0; i < 9; i = i + 1) {
		if (rand(2) == 0) {
			s = s + i;
		} else {
			s = s - 1;
		}
	}
	print(s);
}
`

// TestBatteryDetectsIterCorruption proves the multi-iteration invariants
// have teeth: corrupting a multi-crossing key in a widened cell must fire
// both the per-width counter check (against the trace-derived chain
// expectations) and the first-crossing fold check.
func TestBatteryDetectsIterCorruption(t *testing.T) {
	p, err := pipeline.Compile(iterCorruptionSource, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &checker{p: p, seed: 7, cfg: Config{}.withDefaults(), res: &Result{}}
	if err := c.ground(); err != nil {
		t.Fatal(err)
	}
	if c.res.Skipped {
		t.Fatal("handcrafted loop program must not skip")
	}
	if err := c.sweep(); err != nil {
		t.Fatal(err)
	}
	victim := cell{k: c.cfg.Ks[len(c.cfg.Ks)-1], iters: 3, kind: c.cfg.Stores[0]}
	var key profile.LoopKey
	found := false
	for lk := range c.counters[victim].Loop {
		if lk.NumCrossings() > 1 {
			key, found = lk, true
			break
		}
	}
	if !found {
		t.Fatal("no multi-crossing loop key in the iters=3 cell to corrupt")
	}
	c.counters[victim].Loop[key] += 5
	if err := c.checkCounters(); err != nil {
		t.Fatal(err)
	}
	var gotLoop, gotFold bool
	for _, v := range c.res.Violations {
		switch v.Invariant {
		case "counters/loop":
			gotLoop = true
		case "counters/fold":
			gotFold = true
		}
	}
	if !gotLoop || !gotFold {
		t.Fatalf("iters corruption detection: counters/loop=%v counters/fold=%v among %v",
			gotLoop, gotFold, c.res.Violations)
	}
}

func TestBatteryDetectsMergeDivergence(t *testing.T) {
	c := tamperedChecker(t)
	// Inflate one BL counter in the middle chunk's snapshot before the
	// fold: the merged profile must stop matching the concatenated run.
	c.tamperChunk = func(i int, cc *profile.Counters) {
		if i != 1 {
			return
		}
		f, id := firstBLKey(cc)
		if f < 0 {
			t.Fatal("no BL counters to corrupt")
		}
		cc.BL[f][id] += 3
	}
	if err := c.checkMerge(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range c.res.Violations {
		if v.Invariant != "merge" {
			continue
		}
		found = true
		// The merge family runs the daemon's and the cluster's engine,
		// whatever order the cube lists its engines in.
		if v.Engine != pipeline.EngineReg {
			t.Errorf("merge violation names engine %s, want regvm: %v", v.Engine, v)
		}
	}
	if !found {
		t.Fatalf("merge divergence went undetected: %v", c.res.Violations)
	}
}
