package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/overhead"
	"pathprof/internal/regvm"
)

// warmSession is one program's warm state: a default-option session and a
// reusable uninstrumented machine.
type warmSession struct {
	sess *core.Session
	bare *regvm.Machine
}

// openWarm is warm-runs' set-up: one default-option session per program,
// warmed by a run at the operating point (which builds and caches the plan
// and the register code), plus an uninstrumented machine per program.
func openWarm(progs []*program) ([]warmSession, error) {
	out := make([]warmSession, len(progs))
	for i, p := range progs {
		s, err := core.Open(p.source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if _, err := s.ProfileOL(p.seed, p.k); err != nil {
			return nil, fmt.Errorf("%s: warm-up run: %w", p.name, err)
		}
		code, err := regvm.Compile(s.Prog, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m := regvm.NewMachine(code, p.seed)
		if err := m.Run(nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up bare run: %w", p.name, err)
		}
		out[i] = warmSession{sess: s, bare: m}
	}
	return out, nil
}

// warmRuns is the warm-runs workload: one caller draws (program, seed)
// pairs, profiles each with core.Session.ProfileOL, then runs the same pair
// on the bare machine, timed separately. The op's latency is the profiled
// run alone.
func warmRuns(c *config) (*result, error) {
	progs, err := loadPrograms()
	if err != nil {
		return nil, err
	}
	ops := warmOps(c.seed, len(progs), opListLen)
	for _, op := range ops {
		if _, err := progs[op.Prog].run(op.Seed); err != nil {
			return nil, err
		}
	}

	res := &result{}
	var sessions []warmSession
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if sessions, err = openWarm(progs); err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}

	var rec *recorder
	if c.trace {
		rec = newRecorder()
		res.rec = rec
	}
	// Exact probe-op tallies per program, and the traced heap traffic.
	reports := make([]overhead.Report, len(progs))
	var tracedSteps int64
	var allocs, allocBytes uint64
	var traced int
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	heap := func() (uint64, uint64) {
		metrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Uint64()
	}

	start := time.Now()
	deadline := start.Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		in, tr := pick(i, c.trace)
		op := ops[in%len(ops)]
		p, ws := progs[op.Prog], sessions[op.Prog]
		var r *recorder
		if tr {
			r = rec
		}
		root := r.begin(i, "op", "", -1)
		var a0, b0 uint64
		if r != nil {
			a0, b0 = heap()
		}
		sp := r.begin(i, "regvm.execute", p.name, root)
		t0 := time.Now()
		run, err := ws.sess.ProfileOL(op.Seed, p.k)
		d := time.Since(t0)
		r.end(sp)
		if r != nil {
			a1, b1 := heap()
			allocs, allocBytes = allocs+a1-a0, allocBytes+b1-b0
		}
		sp = r.begin(i, "regvm.bare", p.name, root)
		ws.bare.Reset(op.Seed)
		berr := ws.bare.Run(nil)
		r.end(sp)
		r.end(root)

		res.attempted++
		want, _ := p.run(op.Seed) // computed before timing
		if err == nil && berr == nil {
			err = checkCounters(run.Counters, want.serialized)
		}
		if err == nil && berr == nil {
			berr = checkBare(ws.bare.Steps, ws.bare.BaseOps, want)
		}
		if err != nil || berr != nil {
			res.failed++
			continue
		}
		res.opMs = append(res.opMs, ms(d))
		res.input = append(res.input, in)
		res.traced = append(res.traced, r != nil)
		rp := &reports[op.Prog]
		rp.BaseOps += run.Overhead.BaseOps
		rp.BLOps += run.Overhead.BLOps
		rp.LoopOps += run.Overhead.LoopOps
		rp.InterOps += run.Overhead.InterOps
		if r != nil {
			traced++
			tracedSteps += run.Steps
		}
	}
	res.elapsed = time.Since(start)
	if !c.trace {
		return res, nil
	}

	self := rec.selfMs()
	res.layers = map[string]float64{}
	l := res.layers
	perOp := func(name string) float64 { return self[name].ms / float64(max(traced, 1)) }
	l["regvm.execute_ms"] = perOp("regvm.execute")
	l["regvm.bare_ms"] = perOp("regvm.bare")
	l["probe.overhead_pct"] = pct(self["regvm.execute"].ms-self["regvm.bare"].ms, self["regvm.bare"].ms)
	l["regvm.steps_per_us"] = float64(tracedSteps) / (self["regvm.execute"].ms * 1000)
	l["regvm.allocs_per_run"] = float64(allocs) / float64(max(traced, 1))
	l["regvm.bytes_per_run"] = float64(allocBytes) / float64(max(traced, 1))
	var total overhead.Report
	// The wall-clock probe overhead next to the paper's op-count overhead
	// (Figs 7-9), per program: does one predict the other?
	res.notes = append(res.notes, fmt.Sprintf("%-14s %10s %10s %10s %10s %10s %10s %10s",
		"program", "exec_ms", "bare_ms", "probe%", "ops%", "bl_ops%", "loop_ops%", "inter_ops%"))
	for i, p := range progs {
		e, b := self["regvm.execute."+p.name], self["regvm.bare."+p.name]
		rp := reports[i]
		total.BaseOps += rp.BaseOps
		total.BLOps += rp.BLOps
		total.LoopOps += rp.LoopOps
		total.InterOps += rp.InterOps
		l["regvm.execute_ms."+p.name] = e.mean()
		l["regvm.bare_ms."+p.name] = b.mean()
		l["probe.overhead_pct."+p.name] = pct(e.ms-b.ms, b.ms)
		l["overhead.bl_ops_pct."+p.name] = rp.BLPct()
		l["overhead.loop_ops_pct."+p.name] = rp.LoopPct()
		l["overhead.inter_ops_pct."+p.name] = rp.InterPct()
		res.notes = append(res.notes, fmt.Sprintf("%-14s %10.4f %10.4f %10.2f %10.2f %10.2f %10.2f %10.2f",
			p.name, e.mean(), b.mean(), pct(e.ms-b.ms, b.ms), rp.BLPct()+rp.AllPct(),
			rp.BLPct(), rp.LoopPct(), rp.InterPct()))
	}
	l["overhead.bl_ops_pct"] = total.BLPct()
	l["overhead.loop_ops_pct"] = total.LoopPct()
	l["overhead.inter_ops_pct"] = total.InterPct()
	for _, ws := range sessions {
		l["pipeline.plans_cached"] += float64(ws.sess.Pipeline().CachedPlans())
		l["pipeline.codes_cached"] += float64(ws.sess.Pipeline().CachedCodes())
	}
	return res, nil
}
