package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewSpan("job")
	q := root.Child("queue")
	time.Sleep(2 * time.Millisecond)
	q.End()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := root.Child("shard")
			sh.SetAttr("shard", string(rune('0'+i)))
			ex := sh.Child("execute")
			time.Sleep(time.Millisecond)
			ex.End()
			sh.End()
		}(i)
	}
	wg.Wait()
	m := root.Child("merge")
	m.End()
	root.End()

	n := root.Tree()
	if n.Name != "job" || n.Open {
		t.Fatalf("root node %+v", n)
	}
	if len(n.Children) != 5 {
		t.Fatalf("root has %d children, want 5", len(n.Children))
	}
	if n.Children[0].Name != "queue" {
		t.Fatalf("children not in start order: %v", n.Children[0].Name)
	}
	names := map[string]int{}
	Walk(n, func(node *SpanNode, depth int) {
		names[node.Name]++
		if node.StartNs < 0 {
			t.Fatalf("span %s starts before root: %d", node.Name, node.StartNs)
		}
		if node.DurationNs < 0 {
			t.Fatalf("span %s has negative duration", node.Name)
		}
		if node.StartNs+node.DurationNs > n.DurationNs {
			t.Fatalf("span %s (%d+%d) extends past root end %d",
				node.Name, node.StartNs, node.DurationNs, n.DurationNs)
		}
	})
	if names["shard"] != 3 || names["execute"] != 3 || names["queue"] != 1 || names["merge"] != 1 {
		t.Fatalf("span census wrong: %v", names)
	}
	if q.Duration() < 2*time.Millisecond {
		t.Fatalf("queue duration %v < slept 2ms", q.Duration())
	}

	// End is idempotent: a second End doesn't move the recorded end time.
	d := q.Duration()
	q.End()
	if q.Duration() != d {
		t.Fatal("second End moved the span's end")
	}

	// The tree serializes to JSON with the documented field names.
	raw, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"name"`, `"start_ns"`, `"duration_ns"`, `"children"`, `"attrs"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("serialized tree missing %s: %s", key, raw)
		}
	}
}

func TestSpanOpenAndRender(t *testing.T) {
	root := NewSpan("job")
	c := root.Child("queue")
	n := root.Tree()
	if !n.Open || !n.Children[0].Open {
		t.Fatalf("unfinished spans not marked open: %+v", n)
	}
	c.SetAttr("k", "2")
	c.End()
	root.End()
	text := Render(root.Tree())
	if !strings.Contains(text, "job") || !strings.Contains(text, "queue") {
		t.Fatalf("render missing span names:\n%s", text)
	}
	if !strings.Contains(text, "{k=2}") {
		t.Fatalf("render missing attrs:\n%s", text)
	}
	if !strings.Contains(text, "  queue") {
		t.Fatalf("render not indented by depth:\n%s", text)
	}
}

// TestGraftRebasesRemoteTree: a grafted tree keeps its shape and relative
// offsets, is re-based so its root ends when its answer arrived, never
// starts before the span it hangs under, and is not mutated by snapshots.
func TestGraftRebasesRemoteTree(t *testing.T) {
	remote := &SpanNode{Name: "job", DurationNs: int64(3 * time.Millisecond), Children: []*SpanNode{
		{Name: "queue", DurationNs: int64(time.Millisecond)},
		{Name: "merge", StartNs: int64(2 * time.Millisecond), DurationNs: int64(time.Millisecond)},
	}}
	root := NewSpan("cjob")
	attempt := root.Child("attempt")
	time.Sleep(5 * time.Millisecond)
	arrived := time.Now()
	attempt.Graft(remote, arrived)
	attempt.End()
	root.End()

	n := root.Tree()
	a := n.Children[0]
	if len(a.Children) != 1 || a.Children[0].Name != "job" {
		t.Fatalf("attempt children: %+v", a.Children)
	}
	g := a.Children[0]
	wantStart := arrived.Add(-3 * time.Millisecond).Sub(root.Start()).Nanoseconds()
	if g.StartNs != wantStart {
		t.Fatalf("grafted root starts at %d, want %d (ending at arrival)", g.StartNs, wantStart)
	}
	if g.StartNs < a.StartNs || g.StartNs+g.DurationNs > a.StartNs+a.DurationNs {
		t.Fatalf("grafted root [%d,+%d] outside its attempt [%d,+%d]",
			g.StartNs, g.DurationNs, a.StartNs, a.DurationNs)
	}
	if len(g.Children) != 2 || g.Children[1].StartNs-g.StartNs != int64(2*time.Millisecond) {
		t.Fatalf("grafted children lost their relative offsets: %+v", g.Children)
	}
	if remote.StartNs != 0 || remote.Children[1].StartNs != int64(2*time.Millisecond) {
		t.Fatalf("Tree mutated the grafted tree: %+v", remote)
	}

	// Grafts race with snapshots: a coordinator serves a job's trace while
	// its attempts are still grafting answers.
	busy := NewSpan("attempt")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			busy.Graft(remote, time.Now())
		}()
	}
	for i := 0; i < 4; i++ {
		busy.Tree()
	}
	wg.Wait()
	if got := len(busy.Tree().Children); got != 4 {
		t.Fatalf("concurrent grafts: %d children, want 4", got)
	}

	// A tree longer than the time since its parent started is clamped to
	// the parent's start instead of starting before it.
	late := NewSpan("attempt")
	late.Graft(&SpanNode{Name: "job", DurationNs: int64(time.Hour)}, time.Now())
	if got := late.Tree().Children[0].StartNs; got != 0 {
		t.Fatalf("overlong graft starts at %d, want clamped to 0", got)
	}
}
