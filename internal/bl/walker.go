package bl

import (
	"fmt"

	"pathprof/internal/cfg"
)

// Instance is one dynamic execution of a BL path.
type Instance struct {
	// PathID is the Ball-Larus id of the executed path.
	PathID int64
	// StartHeader is the loop header the path began at (after a
	// backedge), or cfg.None if it began at the procedure entry.
	StartHeader cfg.NodeID
	// EndBackedge is the backedge that terminated the path; AtExit is
	// true instead when the path ran to the procedure exit.
	EndBackedge cfg.Edge
	// AtExit reports whether the instance ended at the procedure exit.
	AtExit bool
}

// Walker segments a dynamic stream of basic blocks (one procedure
// activation) into BL path instances. It is the reference semantics for BL
// profiling: the instrumented runtime must produce exactly the counts the
// Walker produces, and the whole-program tracer uses it to compute ground
// truth.
type Walker struct {
	d   *DAG
	cur cfg.NodeID
	id  int64
	// startHeader is the header the current path started at (None at
	// activation start).
	startHeader cfg.NodeID
	// route records the blocks of the in-flight path after its start
	// block, for PartialBlocks.
	route []cfg.NodeID
}

// NewWalker starts a walker for one activation of d's procedure; the entry
// block is implicitly the first block executed.
func NewWalker(d *DAG) *Walker {
	w := &Walker{}
	w.Reset(d)
	return w
}

// Reset restarts w for a new activation of d's procedure, keeping the
// route's backing array so a recycled walker steps without allocating.
func (w *Walker) Reset(d *DAG) {
	w.d = d
	w.cur = d.G.Entry()
	w.id = 0
	w.startHeader = cfg.None
	w.route = w.route[:0]
}

// Cur returns the block the walker currently stands on.
func (w *Walker) Cur() cfg.NodeID { return w.cur }

// PartialID returns the Ball-Larus register value accumulated so far by the
// in-flight path — the `r` the paper's interprocedural instrumentation
// passes at a call site. Together with the current block it uniquely
// identifies the in-flight prefix.
func (w *Walker) PartialID() int64 { return w.id }

// StartHeader returns the loop header the in-flight path started at, or
// cfg.None if it started at the procedure entry.
func (w *Walker) StartHeader() cfg.NodeID { return w.startHeader }

// PartialBlocks returns the blocks of the in-flight (incomplete) path, from
// its start block through the walker's current block. It is used by the
// interprocedural ground-truth machinery to capture the caller's prefix at a
// call site.
func (w *Walker) PartialBlocks() []cfg.NodeID {
	start := w.d.G.Entry()
	if w.startHeader != cfg.None {
		start = w.startHeader
	}
	blocks := make([]cfg.NodeID, 0, len(w.route)+1)
	blocks = append(blocks, start)
	return append(blocks, w.route...)
}

// Step advances the walker to block next, which must be a CFG successor of
// the current block. If the edge is a backedge, the current path instance
// completes and is returned with done set, and a new path begins at the
// loop header.
func (w *Walker) Step(next cfg.NodeID) (inst Instance, done bool, err error) {
	for _, se := range w.d.succ[w.cur] {
		if se.to != next {
			continue
		}
		if se.back {
			inst = Instance{
				PathID:      w.id + se.val,
				StartHeader: w.startHeader,
				EndBackedge: cfg.Edge{From: w.cur, To: next},
			}
			w.id = se.restart
			w.startHeader = next
			w.cur = next
			w.route = w.route[:0]
			return inst, true, nil
		}
		w.id += se.val
		w.cur = next
		w.route = append(w.route, next)
		return Instance{}, false, nil
	}
	return Instance{}, false, fmt.Errorf("bl: step along nonexistent edge %s->%s in %s",
		w.d.G.Label(w.cur), w.d.G.Label(next), w.d.G.Name)
}

// Finish completes the activation; the walker must be standing on the
// procedure's exit block.
func (w *Walker) Finish() (Instance, error) {
	if w.cur != w.d.G.Exit() {
		return Instance{}, fmt.Errorf("bl: Finish at %s, not at exit %s",
			w.d.G.Label(w.cur), w.d.G.Label(w.d.G.Exit()))
	}
	return Instance{PathID: w.id, StartHeader: w.startHeader, AtExit: true}, nil
}

// CountProfile folds a sequence of instances into an id → frequency map.
func CountProfile(instances []Instance) map[int64]uint64 {
	m := make(map[int64]uint64)
	for _, in := range instances {
		m[in.PathID]++
	}
	return m
}
