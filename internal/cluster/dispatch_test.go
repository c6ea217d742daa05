package cluster

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"pathprof/internal/merge"
	"pathprof/internal/profstore"
)

// TestPickWorkerReservesLoad: successive picks on idle workers alternate,
// because each pick reserves its load before the next pick reads the
// loads, and every load returns to 0 once the attempts release them.
func TestPickWorkerReservesLoad(t *testing.T) {
	a, b := "http://127.0.0.1:1", "http://127.0.0.1:2"
	c := New(Config{Workers: []string{b, a}})
	t.Cleanup(c.Close)
	var picked []*workerClient
	var got []string
	for i := 0; i < 4; i++ {
		w := c.pickWorker("")
		picked = append(picked, w)
		got = append(got, w.base)
	}
	if want := []string{a, b, a, b}; !reflect.DeepEqual(got, want) {
		t.Fatalf("picks on idle workers = %v, want %v", got, want)
	}
	if w := c.pickWorker(a); w.base != b {
		t.Fatalf("pick avoiding %s on equal loads chose %s", a, w.base)
	} else {
		picked = append(picked, w)
	}
	for _, w := range picked {
		w.addLoad(-1)
	}
	for _, base := range []string{a, b} {
		if l := c.worker(base).load(); l != 0 {
			t.Fatalf("%s: load %d after every attempt released, want 0", base, l)
		}
	}
}

// TestFoldFleetIncompatibleCell: a job snapshot that cannot fold into its
// authoritative cell fails the fold with an error naming the cell, and the
// cell keeps what it held.
func TestFoldFleetIncompatibleCell(t *testing.T) {
	c := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	t.Cleanup(c.Close)
	key := profstore.CellKey{Bench: "130.li", K: 1}
	bad := merge.Empty(1, 2) // 130.li has 5 functions
	c.fleet[key] = &cell{snap: bad}
	job := merge.Empty(1, 5)
	job.Counters.BL[0][0] = 3
	before := c.metricsSnapshot().FleetFoldErrors
	err := c.foldFleet(context.Background(), key, job)
	if err == nil || !strings.Contains(err.Error(), key.String()) {
		t.Fatalf("fold into an incompatible cell: err = %v, want an error naming %s", err, key)
	}
	if got := c.metricsSnapshot().FleetFoldErrors; got != before+1 {
		t.Fatalf("fleet_fold_errors %d after the failed fold, want %d", got, before+1)
	}
	if cl := c.fleet[key]; cl.snap != bad || bad.Mass() != 0 {
		t.Fatal("failed fold changed the cell")
	}
}
