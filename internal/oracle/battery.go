package oracle

// This file implements the metamorphic invariant battery. Each check
// appends Violations rather than failing fast, so one oracle run reports
// everything that is wrong with a build at once.

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"

	"pathprof/internal/estimate"
	"pathprof/internal/profile"
	"pathprof/internal/trace"
)

// expectedAt derives the trace-side expected counters of one (degree,
// window width) cell (cached per pair: they are store-independent; only the
// loop family depends on the width).
type expected struct {
	loop map[profile.LoopKey]uint64
	t1   map[profile.TypeIKey]uint64
	t2   map[profile.TypeIIKey]uint64
}

type kiKey struct{ k, iters int }

func (c *checker) expectedAt(k, iters int) (*expected, error) {
	loop, err := c.tr.ExpectedLoopCountersIters(k, iters)
	if err != nil {
		return nil, fmt.Errorf("oracle: expected loop counters k=%d iters=%d: %w", k, iters, err)
	}
	t1, err := c.tr.ExpectedTypeI(k)
	if err != nil {
		return nil, fmt.Errorf("oracle: expected Type I counters k=%d: %w", k, err)
	}
	t2, err := c.tr.ExpectedTypeII(k)
	if err != nil {
		return nil, fmt.Errorf("oracle: expected Type II counters k=%d: %w", k, err)
	}
	return &expected{loop: loop, t1: t1, t2: t2}, nil
}

// checkCounters validates, for every matrix cell, that the instrumented
// counters equal the trace-derived expectations key-for-key; that the BL
// substrate is untouched by OL instrumentation (at k = 0 this is the
// paper's OL-0 == BL identity); that widened (iters > 2) loop counters
// project onto the two-iteration profile exactly when folded to their first
// crossing (the invariant estimate relies on); and that the conservation
// sums hold: every call contributes exactly one Type I and one Type II
// pair, and the loop counter mass of a loop equals its backedge-crossing
// count at every width.
func (c *checker) checkCounters() error {
	byKI := map[kiKey]*expected{}
	get := func(k, iters int) (*expected, error) {
		want, ok := byKI[kiKey{k, iters}]
		if !ok {
			var err error
			want, err = c.expectedAt(k, iters)
			if err != nil {
				return nil, err
			}
			byKI[kiKey{k, iters}] = want
		}
		return want, nil
	}
	for _, cl := range c.cells() {
		want, err := get(cl.k, cl.iters)
		if err != nil {
			return err
		}
		got := c.counters[cl]

		// BL: exact equality with the reference walker's profile. This
		// is both the cross-validation of the BL substrate and, at
		// k = 0, the OL-0 == BL identity.
		for f := range c.tr.BL {
			if msg := diffMaps(got.BL[f], c.tr.BL[f]); msg != "" {
				c.violate("counters/bl", cl, "func %d: %s", f, msg)
			}
		}
		if msg := diffMaps(got.Loop, want.loop); msg != "" {
			c.violate("counters/loop", cl, "%s", msg)
		}
		if msg := diffMaps(got.TypeI, want.t1); msg != "" {
			c.violate("counters/t1", cl, "%s", msg)
		}
		if msg := diffMaps(got.TypeII, want.t2); msg != "" {
			c.violate("counters/t2", cl, "%s", msg)
		}
		if msg := diffMaps(got.Calls, c.tr.Calls); msg != "" {
			c.violate("counters/calls", cl, "%s", msg)
		}
		if cl.iters > 2 {
			want2, err := get(cl.k, 2)
			if err != nil {
				return err
			}
			if msg := diffMaps(foldLoop(got.Loop), want2.loop); msg != "" {
				c.violate("counters/fold", cl, "first-crossing projection: %s", msg)
			}
		}
		c.checkConservation(cl, got)
	}
	return nil
}

// foldLoop projects loop counters onto their first crossing — the same
// reduction internal/estimate applies to widened profiles.
func foldLoop(in map[profile.LoopKey]uint64) map[profile.LoopKey]uint64 {
	out := make(map[profile.LoopKey]uint64, len(in))
	for k, n := range in {
		fk := k.FirstCrossing()
		out[fk] = profile.SatAdd(out[fk], n)
	}
	return out
}

// checkConservation validates the aggregation identities that tie the OL
// counter families back to coarser ground truth: summed out, the fine
// counters must reproduce the call counts and backedge-crossing counts
// exactly (this is what makes BL frequencies derivable from OL counters).
func (c *checker) checkConservation(cl cell, got *profile.Counters) {
	t1Sum := map[profile.CallKey]uint64{}
	for k, n := range got.TypeI {
		t1Sum[profile.CallKey{Caller: k.Caller, Site: k.Site, Callee: k.Callee}] += n
	}
	t2Sum := map[profile.CallKey]uint64{}
	for k, n := range got.TypeII {
		t2Sum[profile.CallKey{Caller: k.Caller, Site: k.Site, Callee: k.Callee}] += n
	}
	for ck, calls := range c.tr.Calls {
		if t1Sum[ck] != calls {
			c.violate("conserve/t1", cl,
				"edge %+v: Type I mass %d != %d calls", ck, t1Sum[ck], calls)
		}
		if t2Sum[ck] != calls {
			c.violate("conserve/t2", cl,
				"edge %+v: Type II mass %d != %d calls", ck, t2Sum[ck], calls)
		}
	}
	type loopID struct{ f, l int }
	loopSum := map[loopID]uint64{}
	for k, n := range got.Loop {
		loopSum[loopID{k.Func, k.Loop}] += n
	}
	crossings := map[loopID]uint64{}
	for adj, n := range c.tr.LoopAdj {
		crossings[loopID{adj.Func, adj.Loop}] += n
	}
	for id, want := range crossings {
		if loopSum[id] != want {
			c.violate("conserve/loop", cl,
				"func %d loop %d: OL mass %d != %d backedge crossings", id.f, id.l, loopSum[id], want)
		}
	}
	for id, got := range loopSum {
		if crossings[id] == 0 && got != 0 {
			c.violate("conserve/loop", cl,
				"func %d loop %d: OL mass %d but no backedge crossings", id.f, id.l, got)
		}
	}
}

// checkStores validates that every (store, engine) combination materialized
// identical canonical counters at every degree. With both engines
// configured this is the tree-vs-regvm differential check: the register
// machine must reproduce the listener-dispatched reference key-for-key.
func (c *checker) checkStores() {
	for _, k := range c.cfg.Ks {
		for _, iters := range c.cfg.Iters {
			ref := cell{k: k, iters: iters, kind: c.cfg.Stores[0], eng: c.cfg.Engines[0]}
			want := c.counters[ref]
			for _, eng := range c.cfg.Engines {
				for _, kind := range c.cfg.Stores {
					cl := cell{k: k, iters: iters, kind: kind, eng: eng}
					if cl == ref {
						continue
					}
					if !reflect.DeepEqual(want, c.counters[cl]) {
						c.violate("stores", cl,
							"canonical counters diverge from %s store on %s engine",
							ref.kind, ref.eng)
					}
				}
			}
		}
	}
}

// checkSerialization validates that (a) every (store, engine) combination
// serializes byte-identically at every degree and (b) serialization
// round-trips losslessly: deserializing and re-serializing reproduces the
// exact bytes.
func (c *checker) checkSerialization() {
	for _, k := range c.cfg.Ks {
		for _, iters := range c.cfg.Iters {
			ref := cell{k: k, iters: iters, kind: c.cfg.Stores[0], eng: c.cfg.Engines[0]}
			want := c.serialized[ref]
			for _, eng := range c.cfg.Engines {
				for _, kind := range c.cfg.Stores {
					cl := cell{k: k, iters: iters, kind: kind, eng: eng}
					if cl == ref {
						continue
					}
					if !bytes.Equal(want, c.serialized[cl]) {
						c.violate("serialize/stores", cl,
							"serialized form diverges from %s store on %s engine",
							ref.kind, ref.eng)
					}
				}
			}
		}
	}
	for _, cl := range c.cells() {
		raw := c.serialized[cl]
		rt, err := profile.ReadCounters(bytes.NewReader(raw))
		if err != nil {
			c.violate("serialize/roundtrip", cl, "ReadCounters: %v", err)
			continue
		}
		var again bytes.Buffer
		if err := rt.Serialize(&again); err != nil {
			c.violate("serialize/roundtrip", cl, "re-serialize: %v", err)
			continue
		}
		if !bytes.Equal(raw, again.Bytes()) {
			c.violate("serialize/roundtrip", cl,
				"round-tripped bytes differ (%d vs %d bytes)", len(raw), len(again.Bytes()))
		}
		if !reflect.DeepEqual(rt, c.counters[cl]) {
			c.violate("serialize/roundtrip", cl,
				"round-tripped counters differ from originals")
		}
	}
}

// checkEstimates validates the flow equations at every configured mode:
// definite <= real <= potential for every loop (aggregate and per pair) and
// every call edge (Type I and Type II aggregates), at the BL-only baseline
// (k = -1) and at every profiled degree — and that the bounds tighten
// monotonically as k grows.
func (c *checker) checkEstimates() error {
	ks := append([]int{-1}, c.cfg.Ks...)
	pairs, err := c.tr.LoopPairs()
	if err != nil {
		return fmt.Errorf("oracle: loop pairs: %w", err)
	}
	flows, err := c.tr.Flows()
	if err != nil {
		return fmt.Errorf("oracle: flows: %w", err)
	}
	for _, mode := range c.cfg.Modes {
		if err := c.checkLoopEstimates(ks, mode, pairs); err != nil {
			return err
		}
		if err := c.checkInterEstimates(ks, mode); err != nil {
			return err
		}
	}
	// Sanity tie between the two ground-truth derivations: the per-pair
	// loop frequencies must sum to the Flows() loop total.
	var loopTotal uint64
	for _, n := range pairs {
		loopTotal += n
	}
	if loopTotal != flows.Loop {
		c.violate("estimate/flows", cell{},
			"LoopPairs total %d != Flows().Loop %d", loopTotal, flows.Loop)
	}
	return nil
}

func (c *checker) checkLoopEstimates(ks []int, mode estimate.Mode, pairs map[trace.LoopPairKey]uint64) error {
	for _, fi := range c.p.Info.Funcs {
		for _, li := range fi.Loops {
			var realTotal int64
			perPair := map[[2]int]int64{}
			for pk, n := range pairs {
				if pk.Func == fi.Index && pk.Loop == li.Index {
					perPair[[2]int{pk.I, pk.J}] = int64(n)
					realTotal += int64(n)
				}
			}
			prevDef, prevPot := int64(-1), int64(-1)
			for _, k := range ks {
				counters := c.at(maxInt(k, c.cfg.Ks[0]))
				res, err := estimate.Loop(fi, li, counters.BL[fi.Index], counters.Loop, k, mode)
				if err != nil {
					return fmt.Errorf("oracle: loop estimate func %d loop %d k=%d: %w",
						fi.Index, li.Index, k, err)
				}
				def, pot := res.Definite(), res.Potential()
				if def > realTotal || pot < realTotal {
					c.violate("estimate/bracket", cell{k: k},
						"%s loop %d mode=%s: flow [%d,%d] misses real %d",
						fi.Fn.Name, li.Index, mode, def, pot, realTotal)
				}
				for pair, real := range perPair {
					v := res.Var(pair[0], pair[1])
					if res.Res.Lower[v] > real || res.Res.Upper[v] < real {
						c.violate("estimate/bracket", cell{k: k},
							"%s loop %d mode=%s pair(%d,%d): [%d,%d] misses %d",
							fi.Fn.Name, li.Index, mode, pair[0], pair[1],
							res.Res.Lower[v], res.Res.Upper[v], real)
					}
				}
				if prevDef >= 0 && (def < prevDef || pot > prevPot) {
					c.violate("estimate/monotone", cell{k: k},
						"%s loop %d mode=%s: bounds widened (def %d->%d, pot %d->%d)",
						fi.Fn.Name, li.Index, mode, prevDef, def, prevPot, pot)
				}
				prevDef, prevPot = def, pot
			}
		}
	}
	return nil
}

func (c *checker) checkInterEstimates(ks []int, mode estimate.Mode) error {
	edges := make([]profile.CallKey, 0, len(c.tr.Calls))
	for ck := range c.tr.Calls {
		edges = append(edges, ck)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Callee < b.Callee
	})
	for _, ck := range edges {
		calls := c.tr.Calls[ck]
		caller := c.p.Info.Funcs[ck.Caller]
		cs := caller.CallSites[ck.Site]
		var realT1, realT2 int64
		for adj, n := range c.tr.T1 {
			if adj.Caller == ck.Caller && adj.Site == ck.Site && adj.Callee == ck.Callee {
				realT1 += int64(n)
			}
		}
		for adj, n := range c.tr.T2 {
			if adj.Caller == ck.Caller && adj.Site == ck.Site && adj.Callee == ck.Callee {
				realT2 += int64(n)
			}
		}
		var prevDef1, prevPot1, prevDef2, prevPot2 int64 = -1, -1, -1, -1
		for _, k := range ks {
			counters := c.at(maxInt(k, c.cfg.Ks[0]))
			r1, err := estimate.TypeI(c.p.Info, caller, cs, ck.Callee,
				counters.BL[ck.Caller], counters.BL[ck.Callee], counters.TypeI, calls, k, mode)
			if err == estimate.ErrTooLarge {
				break // static size, independent of k: the edge is skipped at every degree
			}
			if err != nil {
				return fmt.Errorf("oracle: Type I estimate %+v k=%d: %w", ck, k, err)
			}
			def1, pot1 := r1.Definite(), r1.Potential()
			if def1 > realT1 || pot1 < realT1 {
				c.violate("estimate/bracket", cell{k: k},
					"T1 %+v mode=%s: [%d,%d] misses %d", ck, mode, def1, pot1, realT1)
			}
			if prevDef1 >= 0 && (def1 < prevDef1 || pot1 > prevPot1) {
				c.violate("estimate/monotone", cell{k: k},
					"T1 %+v mode=%s: bounds widened (def %d->%d, pot %d->%d)",
					ck, mode, prevDef1, def1, prevPot1, pot1)
			}
			prevDef1, prevPot1 = def1, pot1

			r2, err := estimate.TypeII(c.p.Info, caller, cs, ck.Callee,
				counters.BL[ck.Caller], counters.BL[ck.Callee], counters.TypeII, calls, k, mode)
			if err == estimate.ErrTooLarge {
				break
			}
			if err != nil {
				return fmt.Errorf("oracle: Type II estimate %+v k=%d: %w", ck, k, err)
			}
			def2, pot2 := r2.Definite(), r2.Potential()
			if def2 > realT2 || pot2 < realT2 {
				c.violate("estimate/bracket", cell{k: k},
					"T2 %+v mode=%s: [%d,%d] misses %d", ck, mode, def2, pot2, realT2)
			}
			if prevDef2 >= 0 && (def2 < prevDef2 || pot2 > prevPot2) {
				c.violate("estimate/monotone", cell{k: k},
					"T2 %+v mode=%s: bounds widened (def %d->%d, pot %d->%d)",
					ck, mode, prevDef2, def2, prevPot2, pot2)
			}
			prevDef2, prevPot2 = def2, pot2
		}
	}
	return nil
}

// checkParallel re-runs the whole matrix concurrently through the worker
// pool and byte-compares every cell against the sequential sweep: the
// parallel sweep mode must be observationally identical.
func (c *checker) checkParallel() error {
	pool := c.cfg.Pool
	if pool == nil {
		pool = c.p.Pool()
	}
	cells := c.cells()
	raws := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, cl := range cells {
		wg.Add(1)
		go func(i int, cl cell) {
			defer wg.Done()
			pool.Do(func() {
				_, raw, err := c.run(cl)
				raws[i], errs[i] = raw, err
			})
		}(i, cl)
	}
	wg.Wait()
	for i, cl := range cells {
		if errs[i] != nil {
			return errs[i]
		}
		c.res.Runs++
		if !bytes.Equal(raws[i], c.serialized[cl]) {
			c.violate("parallel", cl,
				"parallel-sweep counters diverge from sequential sweep")
		}
	}
	return nil
}

// diffMaps reports the first key-for-key mismatch between two counter maps
// ("" when identical).
func diffMaps[K comparable](got, want map[K]uint64) string {
	for k, w := range want {
		if got[k] != w {
			return fmt.Sprintf("key %+v: got %d, want %d", k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok && g != 0 {
			return fmt.Sprintf("unexpected key %+v: got %d, want 0", k, g)
		}
	}
	return ""
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
