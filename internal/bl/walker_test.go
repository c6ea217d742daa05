package bl

import (
	"math/rand"
	"testing"

	"pathprof/internal/cfg"
)

// findNode is a test helper resolving labels.
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

// runHistory drives a walker through a block-label sequence (excluding the
// entry block, which is implicit) and returns the completed instances.
func runHistory(t *testing.T, d *DAG, labels []string) []Instance {
	t.Helper()
	w := NewWalker(d)
	var out []Instance
	for _, l := range labels {
		inst, done, err := w.Step(findNode(t, d.G, l))
		if err != nil {
			t.Fatalf("Step(%s): %v", l, err)
		}
		if done {
			out = append(out, inst)
		}
	}
	inst, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return append(out, inst)
}

// paperHistory builds the execution history from the paper's Section 2.2.3
// example: the loop is entered 500 times; 250 trips run iterations 1!1!3 and
// 250 trips run 2!2!3, where the loop paths are
//
//	1: P1=>B1=>P3   2: P1=>P2=>B2=>P3   3: P1=>P2=>B3=>P3.
func paperHistory(t *testing.T, d *DAG) []Instance {
	t.Helper()
	trip133 := []string{"P1", "B1", "P3", "P1", "B1", "P3", "P1", "P2", "B3", "P3", "Ex"}
	trip223 := []string{"P1", "P2", "B2", "P3", "P1", "P2", "B2", "P3", "P1", "P2", "B3", "P3", "Ex"}
	var all []Instance
	for i := 0; i < 250; i++ {
		all = append(all, runHistory(t, d, trip133)...)
		all = append(all, runHistory(t, d, trip223)...)
	}
	return all
}

func TestWalkerPaperHistoryShape(t *testing.T) {
	d := mustDAG(t, cfg.PaperLoopCFG())
	instances := paperHistory(t, d)
	// Each trip yields 3 instances (2 backedges + 1 exit); 500 trips.
	if len(instances) != 1500 {
		t.Fatalf("instances = %d; want 1500", len(instances))
	}
	backs, exits := 0, 0
	for _, in := range instances {
		if in.AtExit {
			exits++
		} else {
			backs++
		}
	}
	if backs != 1000 || exits != 500 {
		t.Fatalf("backedge instances = %d (want 1000), exit instances = %d (want 500)", backs, exits)
	}
}

func TestLoopFlowMatchesPaperExample(t *testing.T) {
	g := cfg.PaperLoopCFG()
	d := mustDAG(t, g)
	lp, err := d.LoopSeqs(d.Loops.Loops[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Count() != 3 {
		t.Fatalf("loop paths = %d; want 3", lp.Count())
	}
	// DFS order must match the paper's numbering.
	want := [][]string{
		{"P1", "B1", "P3"},
		{"P1", "P2", "B2", "P3"},
		{"P1", "P2", "B3", "P3"},
	}
	for i, seq := range lp.Seqs {
		if len(seq) != len(want[i]) {
			t.Fatalf("seq %d = %s", i, FormatSeq(g, seq))
		}
		for j, b := range seq {
			if g.Label(b) != want[i][j] {
				t.Fatalf("seq %d = %s; want %v", i, FormatSeq(g, seq), want[i])
			}
		}
	}

	profile := CountProfile(paperHistory(t, d))
	lf, err := ComputeLoopFlow(d, lp, profile)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: F1 = F2 = F3 = 500, B = 1000, E1 = E2 = 250, E3 = 0, X3 = 500.
	wantF := []uint64{500, 500, 500}
	wantE := []uint64{250, 250, 0}
	wantX := []uint64{0, 0, 500}
	for i := 0; i < 3; i++ {
		if lf.F[i] != wantF[i] || lf.E[i] != wantE[i] || lf.X[i] != wantX[i] {
			t.Fatalf("seq %d: F=%d E=%d X=%d; want F=%d E=%d X=%d",
				i+1, lf.F[i], lf.E[i], lf.X[i], wantF[i], wantE[i], wantX[i])
		}
	}
	if lf.B != 1000 {
		t.Fatalf("B = %d; want 1000", lf.B)
	}
}

func TestWalkerRejectsNonEdges(t *testing.T) {
	d := mustDAG(t, cfg.PaperLoopCFG())
	w := NewWalker(d)
	if _, _, err := w.Step(findNode(t, d.G, "P3")); err == nil {
		t.Fatal("Step along nonexistent edge En->P3 succeeded")
	}
}

func TestWalkerFinishRequiresExit(t *testing.T) {
	d := mustDAG(t, cfg.PaperLoopCFG())
	w := NewWalker(d)
	if _, _, err := w.Step(findNode(t, d.G, "P1")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish away from exit succeeded")
	}
}

func TestWalkerPartialBlocks(t *testing.T) {
	g := cfg.PaperLoopCFG()
	d := mustDAG(t, g)
	w := NewWalker(d)
	for _, l := range []string{"P1", "B1", "P3"} {
		if _, _, err := w.Step(findNode(t, g, l)); err != nil {
			t.Fatal(err)
		}
	}
	got := FormatSeq(g, w.PartialBlocks())
	if got != "En=>P1=>B1=>P3" {
		t.Fatalf("PartialBlocks = %s", got)
	}
	// Cross the backedge; partial restarts at the header.
	if _, _, err := w.Step(findNode(t, g, "P1")); err != nil {
		t.Fatal(err)
	}
	if got := FormatSeq(g, w.PartialBlocks()); got != "P1" {
		t.Fatalf("PartialBlocks after backedge = %s", got)
	}
}

// TestWalkerMatchesReconstruction drives random executions through random
// reducible CFGs and checks that every emitted instance's id reconstructs to
// exactly the block segment that was executed.
func TestWalkerMatchesReconstruction(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomReducibleCFG(r, 5+r.Intn(8))
		d, err := Build(g)
		if err != nil {
			continue
		}
		w := NewWalker(d)
		cur := g.Entry()
		segment := []cfg.NodeID{cur}
		steps := 0
		for cur != g.Exit() && steps < 300 {
			succs := g.Succs(cur)
			next := succs[r.Intn(len(succs))]
			inst, done, err := w.Step(next)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if done {
				p, err := d.PathForID(inst.PathID)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if SeqKey(p.Blocks) != SeqKey(segment) {
					t.Fatalf("seed %d: instance %d blocks %v != executed %v",
						seed, inst.PathID, p.Blocks, segment)
				}
				segment = []cfg.NodeID{next}
			} else {
				segment = append(segment, next)
			}
			cur = next
			steps++
		}
		if cur == g.Exit() {
			inst, err := w.Finish()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			p, _ := d.PathForID(inst.PathID)
			if SeqKey(p.Blocks) != SeqKey(segment) {
				t.Fatalf("seed %d: final blocks %v != executed %v", seed, p.Blocks, segment)
			}
		}
	}
}
