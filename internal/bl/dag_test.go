package bl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pathprof/internal/cfg"
)

func mustDAG(t *testing.T, g *cfg.Graph) *DAG {
	t.Helper()
	d, err := Build(g)
	if err != nil {
		t.Fatalf("Build(%s): %v", g.Name, err)
	}
	return d
}

func TestPaperLoopHasTwelveBLPaths(t *testing.T) {
	d := mustDAG(t, cfg.PaperLoopCFG())
	if d.Total() != 12 {
		t.Fatalf("Total = %d; want 12 (paper Table 2)", d.Total())
	}
	// Group census: 3 paths in each of the four groups.
	paths, err := d.EnumeratePaths(100)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int]int{}
	for _, p := range paths {
		groups[p.Group()]++
	}
	for grp := 1; grp <= 4; grp++ {
		if groups[grp] != 3 {
			t.Fatalf("group %d has %d paths; want 3 (census %v)", grp, groups[grp], groups)
		}
	}
}

func TestDiamondPaths(t *testing.T) {
	d := mustDAG(t, cfg.DiamondCFG())
	if d.Total() != 2 {
		t.Fatalf("Total = %d; want 2", d.Total())
	}
	paths, _ := d.EnumeratePaths(10)
	if len(paths) != 2 || paths[0].ID != 0 || paths[1].ID != 1 {
		t.Fatalf("paths = %v", paths)
	}
}

func TestPathIDBijectionOnPaperExample(t *testing.T) {
	d := mustDAG(t, cfg.PaperLoopCFG())
	seen := map[string]bool{}
	for id := int64(0); id < d.Total(); id++ {
		p, err := d.PathForID(id)
		if err != nil {
			t.Fatalf("PathForID(%d): %v", id, err)
		}
		if p.ID != id {
			t.Fatalf("PathForID(%d).ID = %d", id, p.ID)
		}
		// Each id maps to a distinct (blocks, endpoints) signature.
		sig := SeqKey(p.Blocks)
		if _, e := p.EndBackedge(); e {
			sig += "!"
		}
		if _, s := p.StartHeader(); s {
			sig = "^" + sig
		}
		if seen[sig] {
			t.Fatalf("duplicate path signature %q for id %d", sig, id)
		}
		seen[sig] = true
	}
}

func TestPathForIDOutOfRange(t *testing.T) {
	d := mustDAG(t, cfg.DiamondCFG())
	if _, err := d.PathForID(-1); err == nil {
		t.Fatal("PathForID(-1) succeeded")
	}
	if _, err := d.PathForID(2); err == nil {
		t.Fatal("PathForID(Total) succeeded")
	}
}

func TestEnumerateMatchesReconstruct(t *testing.T) {
	for _, g := range []*cfg.Graph{cfg.PaperLoopCFG(), cfg.PaperCallerCFG(), cfg.PaperCalleeCFG(), cfg.NestedLoopCFG()} {
		d := mustDAG(t, g)
		paths, err := d.EnumeratePaths(1 << 20)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if int64(len(paths)) != d.Total() {
			t.Fatalf("%s: enumerated %d paths, Total=%d", g.Name, len(paths), d.Total())
		}
		for i, p := range paths {
			if p.ID != int64(i) {
				t.Fatalf("%s: enumeration out of order at %d: id %d", g.Name, i, p.ID)
			}
			q, err := d.PathForID(p.ID)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if SeqKey(q.Blocks) != SeqKey(p.Blocks) {
				t.Fatalf("%s id %d: enumerate blocks %v != reconstruct %v", g.Name, i, p.Blocks, q.Blocks)
			}
		}
	}
}

func TestBuildRejectsIrreducible(t *testing.T) {
	g := cfg.MustBuild("irr", `
		En -> A B
		A -> B2
		B -> A2
		A2 -> B2 Ex
		B2 -> A2
	`)
	if _, err := Build(g); err == nil {
		t.Fatal("Build accepted irreducible CFG")
	}
}

func TestBuildRejectsInvalidGraph(t *testing.T) {
	g := cfg.New("bad")
	g.AddNode("a")
	if _, err := Build(g); err == nil {
		t.Fatal("Build accepted graph without entry/exit")
	}
}

// randomReducibleCFG builds a random DAG then adds random backedges t->h
// where h dominates t, which preserves reducibility.
func randomReducibleCFG(r *rand.Rand, n int) *cfg.Graph {
	g := cfg.New("rand")
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	for v := 1; v < n; v++ {
		g.MustEdge(cfg.NodeID(r.Intn(v)), cfg.NodeID(v))
	}
	for v := 0; v < n-1; v++ {
		for k := 0; k < 1+r.Intn(2); k++ {
			to := cfg.NodeID(v + 1 + r.Intn(n-v-1))
			if !g.HasEdge(cfg.NodeID(v), to) {
				g.MustEdge(cfg.NodeID(v), to)
			}
		}
	}
	g.SetEntry(0)
	g.SetExit(cfg.NodeID(n - 1))

	dom := cfg.ComputeDominators(g)
	for k := 0; k < n/3; k++ {
		t0 := cfg.NodeID(1 + r.Intn(n-1))
		h := cfg.NodeID(1 + r.Intn(n-1))
		// Never add backedges out of the exit (it must stay succ-free)
		// or into the entry.
		if t0 == cfg.NodeID(n-1) || t0 == h {
			continue
		}
		if dom.Dominates(h, t0) && !g.HasEdge(t0, h) {
			g.MustEdge(t0, h)
		}
	}
	return g
}

func TestNumberingBijectiveOnRandomReducibleCFGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomReducibleCFG(r, 4+r.Intn(10))
		d, err := Build(g)
		if err != nil {
			// Random graph may be invalid (e.g. a node that cannot
			// reach exit after our exit rule); skip those.
			return true
		}
		if d.Total() > 5000 {
			return true
		}
		paths, err := d.EnumeratePaths(5000)
		if err != nil || int64(len(paths)) != d.Total() {
			return false
		}
		seen := map[string]bool{}
		for i, p := range paths {
			if p.ID != int64(i) {
				return false
			}
			sig := SeqKey(p.Blocks)
			// A block t may have backedges to two different headers;
			// the paths share blocks but are distinct, so the
			// signature must include the backedge target.
			if be, ok := p.EndBackedge(); ok {
				sig += "!" + SeqKey([]cfg.NodeID{be.To})
			}
			if h, ok := p.StartHeader(); ok {
				sig = SeqKey([]cfg.NodeID{h}) + "^" + sig
			}
			if seen[sig] {
				return false
			}
			seen[sig] = true
			q, err := d.PathForID(p.ID)
			if err != nil || SeqKey(q.Blocks) != SeqKey(p.Blocks) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestDummyEdgeLookups(t *testing.T) {
	g := cfg.PaperLoopCFG()
	d := mustDAG(t, g)
	var p1, p3 cfg.NodeID
	for i := 0; i < g.Len(); i++ {
		switch g.Label(cfg.NodeID(i)) {
		case "P1":
			p1 = cfg.NodeID(i)
		case "P3":
			p3 = cfg.NodeID(i)
		}
	}
	if d.EntryDummy(p1) == nil {
		t.Fatal("no entry dummy for P1")
	}
	be := cfg.Edge{From: p3, To: p1}
	if d.ExitDummy(be) == nil {
		t.Fatal("no exit dummy for P3->P1")
	}
	if !d.IsBackedge(be) {
		t.Fatal("IsBackedge(P3->P1) = false")
	}
	if d.RealEdge(be) != nil {
		t.Fatal("backedge has a real DAG edge")
	}
	if d.RealEdge(cfg.Edge{From: g.Entry(), To: p1}) == nil {
		t.Fatal("real edge En->P1 missing")
	}
}

// TestSeqKeyFormat pins the key strings: loop-path indexes and the
// estimators' region keys are built from them, so they must not change.
func TestSeqKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		blocks []cfg.NodeID
		want   string
	}{
		{[]cfg.NodeID{0, 12, 7}, "0,12,7"},
		{nil, ""},
		{[]cfg.NodeID{}, ""},
		{[]cfg.NodeID{5}, "5"},
		{[]cfg.NodeID{cfg.None, 1234567}, "-1,1234567"},
	} {
		if got := SeqKey(tc.blocks); got != tc.want {
			t.Errorf("SeqKey(%v) = %q, want %q", tc.blocks, got, tc.want)
		}
	}
	// Past the 64-byte stack buffer.
	long := make([]cfg.NodeID, 40)
	parts := make([]string, len(long))
	for i := range long {
		long[i] = cfg.NodeID(1000 + i)
		parts[i] = fmt.Sprint(1000 + i)
	}
	if got, want := SeqKey(long), strings.Join(parts, ","); got != want {
		t.Errorf("SeqKey(40 blocks) = %q, want %q", got, want)
	}
}
