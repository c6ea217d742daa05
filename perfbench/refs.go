package main

import (
	"bytes"
	"fmt"
	"sync"

	"pathprof/internal/core"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/lang"
	"pathprof/internal/merge"
	"pathprof/internal/pipeline"
	"pathprof/internal/profile"
	"pathprof/internal/server"
	"pathprof/internal/trace"
	"pathprof/internal/workload"
)

// program is one bundled program, the degree every workload profiles it at,
// and the reference side of its output checks: a pipeline on the
// tree-walking interpreter, whose probes run through instrument.Runtime
// listeners rather than the register machine's compiled probes.
type program struct {
	name   string
	source string
	// seed is the bundled seed cold-sweep runs the program at.
	seed uint64
	// k is the paper's operating point, about a third of the program's
	// maximum degree and at least 1 (experiments.BenchRun.KChosen).
	k   int
	ref *pipeline.Pipeline

	mu   sync.Mutex
	runs map[uint64]*refRun
}

// refRun is one tree-engine run at the workloads' configuration.
type refRun struct {
	counters       *profile.Counters
	serialized     []byte
	steps, baseOps int64
}

// jobWant is what a daemon must report for one job spec.
type jobWant struct {
	mass                uint64
	definite, potential int64
}

// loadPrograms compiles and analyzes the nine bundled programs for the
// reference side.
func loadPrograms() ([]*program, error) {
	var out []*program
	for _, b := range workload.All() {
		prog, err := lang.Compile(b.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		ref, err := pipeline.New(prog, pipeline.Options{Engine: pipeline.EngineTree, Store: profile.StoreNested})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		k := (&experiments.BenchRun{MaxK: ref.Info.MaxDegree()}).KChosen()
		out = append(out, &program{
			name: b.Name, source: b.Source, seed: b.Seed, k: k, ref: ref,
			runs: map[uint64]*refRun{},
		})
	}
	return out, nil
}

// cfg is the instrumentation every run and job of the program uses: degree
// k, two-iteration windows, loop and interprocedural probes on — what
// core.Session.ProfileOL and a pathprofd job at k both select.
func (p *program) cfg() instrument.Config {
	return instrument.Config{K: p.k, Loops: true, Interproc: true, Iters: 2}
}

// run returns the tree-engine reference run at seed, computing it once.
func (p *program) run(seed uint64) (*refRun, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r := p.runs[seed]; r != nil {
		return r, nil
	}
	run, err := p.ref.Execute(p.cfg(), seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: reference run: %w", p.name, seed, err)
	}
	var buf bytes.Buffer
	if err := run.Counters.Serialize(&buf); err != nil {
		return nil, err
	}
	r := &refRun{counters: run.Counters, serialized: buf.Bytes(), steps: run.Steps, baseOps: run.BaseOps}
	p.runs[seed] = r
	return r, nil
}

// job returns the single-node library answer for a job of shards shards
// from seed: shard i runs at seed+i, the shard snapshots are merged, and the
// merged profile is estimated at the program's degree.
func (p *program) job(seed uint64, shards int) (jobWant, error) {
	snaps := make([]*merge.Snapshot, shards)
	for i := range snaps {
		r, err := p.run(seed + uint64(i))
		if err != nil {
			return jobWant{}, err
		}
		snaps[i] = merge.New(p.k, 2, r.counters)
	}
	m, err := merge.MergeAll(snaps...)
	if err != nil {
		return jobWant{}, err
	}
	pe, err := core.FromPipeline(p.ref).Estimate(core.RunFromCounters(p.k, 2, m.Counters))
	if err != nil {
		return jobWant{}, err
	}
	return jobWant{mass: m.Mass(), definite: pe.Definite(), potential: pe.Potential()}, nil
}

// checkCounters compares a run's counters with the reference's
// serialization byte for byte.
func checkCounters(got *profile.Counters, want []byte) error {
	var buf bytes.Buffer
	if err := got.Serialize(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("counters differ from the tree-engine reference (%d vs %d bytes)", buf.Len(), len(want))
	}
	return nil
}

// checkBare checks an uninstrumented run against the reference's step and
// base-operation counts.
func checkBare(steps, baseOps int64, want *refRun) error {
	if steps != want.steps || baseOps != want.baseOps {
		return fmt.Errorf("bare run: steps %d base ops %d, reference %d and %d", steps, baseOps, want.steps, want.baseOps)
	}
	return nil
}

// checkBracket checks one degree's estimate against the exact flows: the
// definite flow never exceeds the real one, and the potential flow covers
// it unless a problem was skipped as too large.
func checkBracket(k int, pe *core.ProgramEstimate, real trace.RealFlows) error {
	r := int64(real.Total())
	if d := pe.Definite(); d > r {
		return fmt.Errorf("k=%d: definite flow %d exceeds the real flow %d", k, d, r)
	}
	if p := pe.Potential(); pe.Skipped == 0 && p < r {
		return fmt.Errorf("k=%d: potential flow %d is below the real flow %d", k, p, r)
	}
	return nil
}

// checkJob compares a finished job's result with the library answer.
func checkJob(st *server.JobStatus, want jobWant) error {
	if st.State != "done" || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Errors)
	}
	r := st.Result
	if r.Mass != want.mass || r.Definite != want.definite || r.Potential != want.potential {
		return fmt.Errorf("job %s: mass %d definite %d potential %d, reference %d, %d and %d",
			st.ID, r.Mass, r.Definite, r.Potential, want.mass, want.definite, want.potential)
	}
	return nil
}

// checkRead decodes a fleet read body: GET /v1/profiles bodies with
// merge.Decode, GET /v1/pgo bodies with core.LoadRun. The cell must be the
// one the query pinned and must hold counter mass.
func checkRead(kind string, body []byte, k int) error {
	var gotK int
	var c *profile.Counters
	switch kind {
	case readProfiles:
		snap, err := merge.Decode(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if snap.Iters != 2 {
			return fmt.Errorf("profile read: iters %d, want 2", snap.Iters)
		}
		gotK, c = snap.K, snap.Counters
	case readPGO:
		run, err := core.LoadRun(bytes.NewReader(body))
		if err != nil {
			return err
		}
		gotK, c = run.K, run.Counters
	default:
		return fmt.Errorf("unknown read kind %q", kind)
	}
	if gotK != k {
		return fmt.Errorf("%s read: k %d, want %d", kind, gotK, k)
	}
	if merge.New(k, 2, c).Mass() == 0 {
		return fmt.Errorf("%s read: empty profile", kind)
	}
	return nil
}
