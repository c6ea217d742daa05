package main

import (
	"fmt"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/lang"
	"pathprof/internal/pipeline"
	"pathprof/internal/randprog"
	"pathprof/internal/trace"
)

// sweepListLen bounds the cold-sweep op list. Filtering its generated
// programs costs time before the run, so the list is sized to outlast a
// run by a wide margin and no more: sweeps take 2 to 250 ms.
func sweepListLen(seconds time.Duration) int { return int(seconds.Seconds()*30) + 64 }

// sweepOut is what one sweep produced, for the checks and counts made
// after its timing ends.
type sweepOut struct {
	tracer  *trace.Tracer
	ests    []*core.ProgramEstimate
	fused   int
	plans   int
	codes   int
	vars    int
	exact   int
	skipped int
	maxK    int
}

// sweep takes one program from source text to estimates at every degree —
// lang.Compile, pipeline.New, Pipeline.Trace, then Plan, RegCode, Execute
// and Estimate for each k from -1 (Ball-Larus only) to the maximum — on the
// options cmd/experiments collects with. r, when non-nil, records a span
// around each call under parent.
func sweep(src string, seed uint64, r *recorder, op, parent int) (*sweepOut, error) {
	sp := r.begin(op, "lang.compile", "", parent)
	prog, err := lang.Compile(src)
	r.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.begin(op, "profile.analyze", "", parent)
	p, err := pipeline.New(prog, pipeline.Options{Store: experiments.DefaultStore, Engine: experiments.DefaultEngine})
	r.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.begin(op, "trace.trace", "", parent)
	tr, _, err := p.Trace(seed, false, nil)
	r.end(sp)
	if err != nil {
		return nil, err
	}
	out := &sweepOut{tracer: tr, maxK: p.Info.MaxDegree()}
	sess := core.FromPipeline(p)
	for k := -1; k <= out.maxK; k++ {
		cfg := instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}
		sp = r.begin(op, "instrument.plan", "", parent)
		_, err := p.Plan(cfg)
		r.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.begin(op, "regvm.compile", "", parent)
		code, err := p.RegCode(cfg)
		r.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.begin(op, "regvm.execute", "", parent)
		run, err := p.Execute(cfg, seed, nil)
		r.end(sp)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		sp = r.begin(op, "estimate.estimate", "", parent)
		pe, err := sess.Estimate(core.RunFromCounters(k, run.Iters, run.Counters))
		r.end(sp)
		if err != nil {
			return nil, fmt.Errorf("k=%d: %w", k, err)
		}
		out.ests = append(out.ests, pe)
		f := code.Fusion
		out.fused += f.StepMove + f.StepBin + f.StepLoad + f.StepJump + f.StepBranch +
			f.Charge + f.ChargeJump + f.Probe + f.BranchProbe
		vars, exact := pe.Counts()
		out.vars += vars
		out.exact += exact
		out.skipped += pe.Skipped
	}
	out.plans = p.CachedPlans()
	out.codes = p.CachedCodes()
	return out, nil
}

// check brackets every degree's estimate with the tracer's exact flows.
func (o *sweepOut) check() error {
	real, err := o.tracer.Flows()
	if err != nil {
		return err
	}
	for i, pe := range o.ests {
		if err := checkBracket(i-1, pe, real); err != nil {
			return err
		}
	}
	return nil
}

// coldSweep is the cold-sweep workload: one caller sweeps a seeded mix of
// bundled programs (repeated inputs) and generated programs (never
// repeated), building everything from source on every op. Its set-up is one
// untimed sweep of each bundled program.
func coldSweep(c *config) (*result, error) {
	progs, err := loadPrograms()
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, len(progs))
	maxDegree := 0
	for i, p := range progs {
		seeds[i] = p.seed
		maxDegree = max(maxDegree, p.ref.Info.MaxDegree())
	}
	ops := sweepOps(c.seed, seeds, sweepListLen(c.seconds), admitGenerated(maxDegree))

	res := &result{}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, p := range progs {
			if _, err := sweep(p.source, p.seed, nil, 0, -1); err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}

	var rec *recorder
	if c.trace {
		rec = newRecorder()
		res.rec = rec
	}
	var sums sweepOut
	var traced int
	start := time.Now()
	deadline := start.Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		in, tr := pick(i, c.trace)
		if in >= len(ops) {
			break
		}
		op := ops[in]
		src := randprog.SeedSource(op.GenSeed)
		if op.Bench >= 0 {
			src = progs[op.Bench].source
		}
		var r *recorder
		if tr {
			r = rec
		}
		t0 := time.Now()
		root := r.begin(i, "op", "", -1)
		out, err := sweep(src, op.Seed, r, i, root)
		r.end(root)
		d := time.Since(t0)
		res.attempted++
		if err == nil {
			err = out.check()
		}
		if err != nil {
			res.failed++
			res.notes = append(res.notes, fmt.Sprintf("op %d failed: %v", i, err))
			continue
		}
		res.opMs = append(res.opMs, ms(d))
		res.input = append(res.input, in)
		res.traced = append(res.traced, r != nil)
		sums.fused += out.fused
		sums.vars += out.vars
		sums.exact += out.exact
		sums.skipped += out.skipped
		sums.plans += out.plans
		sums.codes += out.codes
		if r != nil {
			traced++
		}
	}
	res.elapsed = time.Since(start)
	if !c.trace {
		return res, nil
	}

	self := rec.selfMs()
	res.layers = map[string]float64{}
	l := res.layers
	n := float64(max(traced, 1))
	for _, name := range []string{"lang.compile", "profile.analyze", "trace.trace", "instrument.plan",
		"regvm.compile", "regvm.execute", "estimate.estimate"} {
		l[name+"_ms"] = self[name].ms / n
	}
	l["sweep.residual_pct"] = pct(self["op"].ms, self["op"].ms+sumLayers(self))
	done := float64(max(len(res.opMs), 1))
	l["regvm.fused_instrs"] = float64(sums.fused) / done
	l["estimate.vars"] = float64(sums.vars) / done
	l["estimate.exact"] = float64(sums.exact) / done
	l["estimate.skipped"] = float64(sums.skipped) / done
	l["pipeline.plans_cached"] = float64(sums.plans) / done
	l["pipeline.codes_cached"] = float64(sums.codes) / done
	return res, nil
}

// sumLayers totals the self time of every span except the op roots.
func sumLayers(self map[string]agg) float64 {
	var t float64
	for name, a := range self {
		if name != "op" {
			t += a.ms
		}
	}
	return t
}
