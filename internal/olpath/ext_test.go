package olpath

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pathprof/internal/bl"
	"pathprof/internal/cfg"
)

func mustDAG(t *testing.T, g *cfg.Graph) *bl.DAG {
	t.Helper()
	d, err := bl.Build(g)
	if err != nil {
		t.Fatalf("bl.Build(%s): %v", g.Name, err)
	}
	return d
}

func findNode(t *testing.T, g *cfg.Graph, label string) cfg.NodeID {
	t.Helper()
	for i := 0; i < g.Len(); i++ {
		if g.Label(cfg.NodeID(i)) == label {
			return cfg.NodeID(i)
		}
	}
	t.Fatalf("no node %q", label)
	return cfg.None
}

// loopExt builds the degree-k extension of the paper-loop fixture's single
// loop.
func loopExt(t *testing.T, k int) (*bl.DAG, *Ext) {
	t.Helper()
	d := mustDAG(t, cfg.PaperLoopCFG())
	l := d.Loops.Loops[0]
	x, err := NewExt(d, l.Head, l.Contains, k)
	if err != nil {
		t.Fatalf("NewExt: %v", err)
	}
	return d, x
}

func TestLoopMaxDegreeMatchesPaper(t *testing.T) {
	_, x := loopExt(t, 0)
	if md := x.MaxDegree(); md != 2 {
		t.Fatalf("MaxDegree = %d; want 2 (paper: maximum overlap for Table 2 loop is 2)", md)
	}
}

func TestLoopDegreeExtCountsMatchPaperTable3(t *testing.T) {
	// Table 3 reports 6, 12, 12 OL paths for degrees 0, 1, 2. The loop
	// has 6 base paths (BL paths ending at the backedge), so the
	// extension route counts must be 1, 2, 2.
	want := []int{1, 2, 2}
	for k, w := range want {
		_, x := loopExt(t, k)
		n, err := x.CountDegreeExts(1000)
		if err != nil {
			t.Fatal(err)
		}
		if n != w {
			t.Fatalf("degree %d: %d extensions; want %d", k, n, w)
		}
	}
}

func TestTypeIExtCountsMatchPaperTable6(t *testing.T) {
	// Table 6: 3, 6, 6, 12 I-OL-k paths for k = 0..3, over 3 caller
	// prefixes => extension counts 1, 2, 2, 4. Max degree 3.
	d := mustDAG(t, cfg.PaperCalleeCFG())
	want := []int{1, 2, 2, 4}
	for k, w := range want {
		x, err := NewExt(d, d.G.Entry(), nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			if md := x.MaxDegree(); md != 3 {
				t.Fatalf("callee MaxDegree = %d; want 3", md)
			}
		}
		n, err := x.CountDegreeExts(1000)
		if err != nil {
			t.Fatal(err)
		}
		if n != w {
			t.Fatalf("I-OL-%d: %d extensions; want %d", k, n, w)
		}
	}
}

func TestTypeIIExtCountsMatchPaperTable7(t *testing.T) {
	// Table 7: 5, 10 II-OL-k paths for k = 0, 1, over 5 callee paths =>
	// extension counts 1, 2. Max degree 1.
	g := cfg.PaperCallerCFG()
	d := mustDAG(t, g)
	c1 := findNode(t, g, "C1")
	want := []int{1, 2}
	for k, w := range want {
		x, err := NewExt(d, c1, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			if md := x.MaxDegree(); md != 1 {
				t.Fatalf("caller-suffix MaxDegree = %d; want 1", md)
			}
		}
		n, err := x.CountDegreeExts(1000)
		if err != nil {
			t.Fatal(err)
		}
		if n != w {
			t.Fatalf("II-OL-%d: %d extensions; want %d", k, n, w)
		}
	}
}

// figure1CFG models the shape of the paper's Figure 1(a): a loop whose body
// has two predicate levels so that the DI/PI/DNI distinctions of the paper's
// classification examples arise.
func figure1CFG() *cfg.Graph {
	return cfg.MustBuild("fig1", `
		En -> P1
		P1 -> B1 P2
		B1 -> P3
		P2 -> B5 B6
		B5 -> P3
		B6 -> P3a
		P3 -> B2 B3
		P3a -> B2a B3a
		B2 -> P4
		B3 -> P4
		B2a -> P4a
		B3a -> P4a
		P4 -> P1 Ex
		P4a -> P1a Ex
		P1a -> Ex
	`)
}

func TestClassificationExamples(t *testing.T) {
	// Use a simplified variant with unique join blocks so routes to
	// P3 have 2 predicates (via B1) or 3 (via P2,B5).
	g := cfg.MustBuild("fig1simple", `
		En -> P1
		P1 -> B1 P2
		B1 -> P3
		P2 -> B5 B6
		B5 -> P3
		B6 -> P3
		P3 -> B2 B3
		B2 -> P4
		B3 -> P4
		P4 -> P1 Ex
	`)
	d := mustDAG(t, g)
	l := d.Loops.Loops[0]
	edge := func(a, b string) cfg.Edge {
		return cfg.Edge{From: findNode(t, g, a), To: findNode(t, g, b)}
	}

	x2, err := NewExt(d, l.Head, l.Contains, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: P1->P2 and B1->P3 are DI at overlap 2.
	if c := x2.Classify(edge("P1", "P2")); c != DI {
		t.Fatalf("class(P1->P2) at k=2 = %v; want DI", c)
	}
	if c := x2.Classify(edge("B1", "P3")); c != DI {
		t.Fatalf("class(B1->P3) at k=2 = %v; want DI", c)
	}
	// Paper: P3->B2 is PI at overlap 2 (2 predicates via B1, 3 via P2).
	if c := x2.Classify(edge("P3", "B2")); c != PI {
		t.Fatalf("class(P3->B2) at k=2 = %v; want PI", c)
	}

	// Paper: P3->B2 is DNI at overlap 1.
	x1, err := NewExt(d, l.Head, l.Contains, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := x1.Classify(edge("P3", "B2")); c != DNI {
		t.Fatalf("class(P3->B2) at k=1 = %v; want DNI", c)
	}
	// Edges out of the region are DNI by convention.
	if c := x1.Classify(edge("P4", "Ex")); c != DNI {
		t.Fatalf("class(P4->Ex) = %v; want DNI", c)
	}
}

func TestOGNodeMembership(t *testing.T) {
	_, x := loopExt(t, 0)
	g := x.D.G
	// At k=0 the extension freezes at P1 (the header is predicate-like),
	// so only the header is in the OG.
	if !x.InOG(findNode(t, g, "P1")) {
		t.Fatal("header not in OG")
	}
	for _, lbl := range []string{"B1", "P2", "P3"} {
		if x.InOG(findNode(t, g, lbl)) {
			t.Fatalf("node %s in OG at k=0", lbl)
		}
	}
	_, x2 := loopExt(t, 2)
	for _, lbl := range []string{"P1", "B1", "P2", "B2", "B3", "P3"} {
		if !x2.InOG(findNode(t, x2.D.G, lbl)) {
			t.Fatalf("node %s missing from OG at k=2", lbl)
		}
	}
}

// enumerateRoutes lists every route from the root over kept OG edges.
func enumerateRoutes(x *Ext) [][]cfg.NodeID {
	var out [][]cfg.NodeID
	var seq []cfg.NodeID
	var walk func(v cfg.NodeID)
	walk = func(v cfg.NodeID) {
		seq = append(seq, v)
		out = append(out, append([]cfg.NodeID(nil), seq...))
		for _, s := range x.D.G.Succs(v) {
			e := cfg.Edge{From: v, To: s}
			if _, kept := x.val[e]; kept {
				walk(s)
			}
		}
		seq = seq[:len(seq)-1]
	}
	walk(x.Root)
	return out
}

func TestEncodeDecodeRoundTripAndUniqueness(t *testing.T) {
	graphs := []struct {
		d    *bl.DAG
		root func(*bl.DAG) cfg.NodeID
	}{
		{mustDAG(t, cfg.PaperLoopCFG()), func(d *bl.DAG) cfg.NodeID { return d.Loops.Loops[0].Head }},
		{mustDAG(t, cfg.PaperCalleeCFG()), func(d *bl.DAG) cfg.NodeID { return d.G.Entry() }},
		{mustDAG(t, figure1CFG()), func(d *bl.DAG) cfg.NodeID { return d.Loops.Loops[0].Head }},
	}
	for _, tc := range graphs {
		for k := 0; k <= 4; k++ {
			var allowed func(cfg.NodeID) bool
			if l := tc.d.Loops.Innermost(tc.root(tc.d)); l != nil {
				allowed = l.Contains
			}
			x, err := NewExt(tc.d, tc.root(tc.d), allowed, k)
			if err != nil {
				t.Fatal(err)
			}
			routes := enumerateRoutes(x)
			if int64(len(routes)) != x.Routes() {
				t.Fatalf("%s k=%d: %d routes enumerated, Routes()=%d",
					tc.d.G.Name, k, len(routes), x.Routes())
			}
			seen := map[int64]bool{}
			for _, r := range routes {
				enc, err := x.Encode(r)
				if err != nil {
					t.Fatalf("%s k=%d: Encode(%v): %v", tc.d.G.Name, k, r, err)
				}
				if seen[enc] {
					t.Fatalf("%s k=%d: duplicate encoding %d", tc.d.G.Name, k, enc)
				}
				seen[enc] = true
				dec, err := x.Decode(enc)
				if err != nil {
					t.Fatalf("%s k=%d: Decode(%d): %v", tc.d.G.Name, k, enc, err)
				}
				if bl.SeqKey(dec) != bl.SeqKey(r) {
					t.Fatalf("%s k=%d: roundtrip %v -> %d -> %v", tc.d.G.Name, k, r, enc, dec)
				}
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	_, x := loopExt(t, 2)
	if _, err := x.Decode(-1); err == nil {
		t.Fatal("Decode(-1) succeeded")
	}
	if _, err := x.Decode(x.Routes() + 100); err == nil {
		t.Fatal("Decode(out of range) succeeded")
	}
}

func TestCutSeq(t *testing.T) {
	d, x := loopExt(t, 1)
	g := d.G
	seq := []cfg.NodeID{
		findNode(t, g, "P1"), findNode(t, g, "P2"),
		findNode(t, g, "B2"), findNode(t, g, "P3"),
	}
	// k=1: cut at the 2nd predicate-like block = P2.
	cut := x.CutSeq(seq)
	if bl.FormatSeq(g, cut) != "P1=>P2" {
		t.Fatalf("cut = %s; want P1=>P2", bl.FormatSeq(g, cut))
	}
	// k=2: cut at the 3rd = P3 (whole sequence).
	_, x2 := loopExt(t, 2)
	cut2 := x2.CutSeq(seq)
	if bl.FormatSeq(g, cut2) != "P1=>P2=>B2=>P3" {
		t.Fatalf("cut2 = %s", bl.FormatSeq(g, cut2))
	}
	// Sequence not starting at the root is rejected.
	if x.CutSeq(seq[1:]) != nil {
		t.Fatal("CutSeq accepted off-root sequence")
	}
}

// TestTrackerMatchesStaticCut drives random in-region walks and checks the
// tracker's accumulated encoding equals the encoding of the static cut of
// the walked sequence.
func TestTrackerMatchesStaticCut(t *testing.T) {
	d := mustDAG(t, figure1CFG())
	l := d.Loops.Loops[0]
	for k := 0; k <= 3; k++ {
		x, err := NewExt(d, l.Head, l.Contains, k)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(k) * 17))
		for trial := 0; trial < 200; trial++ {
			tr := NewTracker(x)
			tr.Activate()
			walked := []cfg.NodeID{l.Head}
			cur := l.Head
			for step := 0; step < 20; step++ {
				var choices []cfg.NodeID
				for _, s := range d.G.Succs(cur) {
					e := cfg.Edge{From: cur, To: s}
					if l.Contains(s) && !d.IsBackedge(e) {
						choices = append(choices, s)
					}
				}
				if len(choices) == 0 {
					break
				}
				next := choices[r.Intn(len(choices))]
				tr.Step(cfg.Edge{From: cur, To: next})
				walked = append(walked, next)
				cur = next
			}
			wantEnc, err := x.Encode(x.CutSeq(walked))
			if err != nil {
				t.Fatalf("k=%d: Encode(cut(%v)): %v", k, walked, err)
			}
			if got := tr.Finalize(); got != wantEnc {
				t.Fatalf("k=%d: tracker=%d want=%d for walk %v", k, got, wantEnc, walked)
			}
		}
	}
}

func TestTrackerInactiveIgnoresSteps(t *testing.T) {
	_, x := loopExt(t, 2)
	tr := NewTracker(x)
	g := x.D.G
	tr.Step(cfg.Edge{From: findNode(t, g, "P1"), To: findNode(t, g, "P2")})
	if tr.Accum != 0 || tr.Active {
		t.Fatal("inactive tracker accumulated state")
	}
}

func TestNewExtErrors(t *testing.T) {
	d := mustDAG(t, cfg.PaperLoopCFG())
	if _, err := NewExt(d, d.G.Entry(), func(cfg.NodeID) bool { return false }, 1); err == nil {
		t.Fatal("NewExt accepted root outside allowed region")
	}
	if _, err := NewExt(d, d.G.Entry(), nil, -1); err == nil {
		t.Fatal("NewExt accepted negative degree")
	}
}

func TestEnumerateCutExtsPartitionsSeqs(t *testing.T) {
	// Every full loop sequence's cut must appear in EnumerateCutExts.
	d, _ := loopExt(t, 0)
	l := d.Loops.Loops[0]
	lp, err := d.LoopSeqs(l, 100)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 3; k++ {
		x, err := NewExt(d, l.Head, l.Contains, k)
		if err != nil {
			t.Fatal(err)
		}
		cuts, err := x.EnumerateCutExts(1000)
		if err != nil {
			t.Fatal(err)
		}
		cutSet := map[string]bool{}
		for _, c := range cuts {
			cutSet[bl.SeqKey(c)] = true
		}
		for _, seq := range lp.Seqs {
			key := bl.SeqKey(x.CutSeq(seq))
			if !cutSet[key] {
				t.Fatalf("k=%d: cut of seq %s missing from EnumerateCutExts",
					k, bl.FormatSeq(d.G, seq))
			}
		}
	}
}

// randomReducibleCFG mirrors the bl test helper: forward DAG plus backedges
// whose targets dominate their sources.
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
		if t0 == cfg.NodeID(n-1) || t0 == h {
			continue
		}
		if dom.Dominates(h, t0) && !g.HasEdge(t0, h) {
			g.MustEdge(t0, h)
		}
	}
	return g
}

// TestQuickEncodeDecodeOnRandomRegions is the testing/quick form of the
// route-encoding invariant: on random reducible CFGs, for every loop and
// every degree up to max+1, random in-region walks encode and decode to the
// same cut sequence, and the tracker agrees.
func TestQuickEncodeDecodeOnRandomRegions(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomReducibleCFG(r, 5+r.Intn(9))
		d, err := bl.Build(g)
		if err != nil {
			return true // invalid random graph; skip
		}
		for _, l := range d.Loops.Loops {
			x0, err := NewExt(d, l.Head, l.Contains, 0)
			if err != nil {
				return false
			}
			for k := 0; k <= x0.MaxDegree()+1; k++ {
				x, err := NewExt(d, l.Head, l.Contains, k)
				if err != nil {
					return false
				}
				for trial := 0; trial < 20; trial++ {
					tr := NewTracker(x)
					tr.Activate()
					walked := []cfg.NodeID{l.Head}
					cur := l.Head
					for step := 0; step < 15; step++ {
						var choices []cfg.NodeID
						for _, s := range d.G.Succs(cur) {
							e := cfg.Edge{From: cur, To: s}
							if l.Contains(s) && !d.IsBackedge(e) {
								choices = append(choices, s)
							}
						}
						if len(choices) == 0 {
							break
						}
						next := choices[r.Intn(len(choices))]
						tr.Step(cfg.Edge{From: cur, To: next})
						walked = append(walked, next)
						cur = next
					}
					cut := x.CutSeq(walked)
					enc, err := x.Encode(cut)
					if err != nil {
						return false
					}
					if tr.Finalize() != enc {
						return false
					}
					dec, err := x.Decode(enc)
					if err != nil || bl.SeqKey(dec) != bl.SeqKey(cut) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerMarkBrokenScope pins the tracker side of the contract: Broken
// freezes accumulation for the current crossing only, Finalize still returns
// the pre-interruption route, and the next Activate starts clean.
func TestTrackerMarkBrokenScope(t *testing.T) {
	d := mustDAG(t, cfg.PaperCalleeCFG())
	x, err := NewExt(d, d.G.Entry(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(x)
	tr.Activate()
	tr.MarkBroken()
	if !tr.Frozen || !tr.Broken {
		t.Fatal("MarkBroken on an active tracker must freeze and mark it")
	}
	if got := tr.Finalize(); got != 0 {
		t.Fatalf("Finalize after immediate break = %d, want the kept (empty) route 0", got)
	}
	if tr.Broken || tr.Frozen || tr.Active {
		t.Fatal("Finalize must fully reset the tracker")
	}
	tr.Activate()
	if tr.Broken {
		t.Fatal("Activate must clear Broken: the interruption scopes to one crossing")
	}
	tr.MarkBroken()
	tr.Finalize()
	tr.MarkBroken() // inactive: must stay a no-op
	if tr.Broken || tr.Frozen {
		t.Fatal("MarkBroken on an inactive tracker must be a no-op")
	}
}
