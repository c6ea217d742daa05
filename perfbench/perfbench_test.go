package main

// Self-tests of the benchmark: inputs are a pure function of the seed, and
// every output check fires on a tampered result.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"pathprof/internal/core"
	"pathprof/internal/server"
	"pathprof/internal/trace"
)

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedGivesSameInputs(t *testing.T) {
	seeds := []uint64{13, 9, 134}
	every := func(int64) bool { return true }
	for _, tc := range []struct {
		name string
		gen  func(seed uint64) any
	}{
		{"warm-runs", func(s uint64) any { return warmOps(s, 9, 500) }},
		{"fleet", func(s uint64) any { return jobOps(s, "fleet", 9, 2, 500, true) }},
		{"cluster", func(s uint64) any { return jobOps(s, "cluster", 9, 2, 500, false) }},
		{"cold-sweep", func(s uint64) any { return sweepOps(s, seeds, 500, every) }},
		{"cold-sweep filtered", func(s uint64) any { return sweepOps(s, seeds, 6, admitGenerated(8)) }},
	} {
		a, b := encode(t, tc.gen(7)), encode(t, tc.gen(7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", tc.name)
		}
		if bytes.Equal(a, encode(t, tc.gen(8))) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", tc.name)
		}
	}
}

func TestRoundsGiveEveryProgramTheSameShare(t *testing.T) {
	counts := make([]int, 9)
	for _, op := range warmOps(3, 9, 9*40) {
		counts[op.Prog]++
	}
	for p, n := range counts {
		if n != 40 {
			t.Errorf("program %d drawn %d times in 40 rounds", p, n)
		}
	}
}

func TestAdmittedProgramsStayInBounds(t *testing.T) {
	admit := admitGenerated(3)
	for _, op := range sweepOps(5, []uint64{1}, 8, admit) {
		if op.Bench < 0 && !admit(op.GenSeed) {
			t.Errorf("generated program %d was not admitted", op.GenSeed)
		}
	}
}

// smallest returns the bundled program with the shortest runs.
func smallest(t *testing.T) *program {
	t.Helper()
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if p.name == "126.gcc" {
			return p
		}
	}
	t.Fatal("126.gcc is not bundled")
	return nil
}

func TestRunChecksFireOnTamperedOutput(t *testing.T) {
	p := smallest(t)
	want, err := p.run(5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(p.source)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.ProfileOL(5, p.k)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCounters(run.Counters, want.serialized); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if err := checkBare(want.steps, want.baseOps, want); err != nil {
		t.Fatalf("healthy bare run: %v", err)
	}
	f, id := firstBLKey(run.Counters.BL)
	if f < 0 {
		t.Fatal("no Ball-Larus counter to bump")
	}
	run.Counters.BL[f][id]++
	if checkCounters(run.Counters, want.serialized) == nil {
		t.Error("a bumped Ball-Larus counter passed the check")
	}
	if checkBare(want.steps+1, want.baseOps, want) == nil {
		t.Error("a wrong step count passed the bare-run check")
	}
	if checkBare(want.steps, want.baseOps-1, want) == nil {
		t.Error("a wrong base-op count passed the bare-run check")
	}
}

func firstBLKey(bl []map[int64]uint64) (int, int64) {
	for f, m := range bl {
		for id := range m {
			return f, id
		}
	}
	return -1, -1
}

func TestBracketCheckFiresOnTamperedFlows(t *testing.T) {
	p := smallest(t)
	out, err := sweep(p.source, p.seed, nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.check(); err != nil {
		t.Fatalf("healthy sweep: %v", err)
	}
	real, err := out.tracer.Flows()
	if err != nil {
		t.Fatal(err)
	}
	top := out.ests[len(out.ests)-1]
	if top.Definite() == 0 {
		t.Fatal("no definite flow to undercut")
	}
	if checkBracket(out.maxK, top, trace.RealFlows{Loop: uint64(top.Definite()) - 1}) == nil {
		t.Error("a real flow below the definite flow passed the check")
	}
	if checkBracket(out.maxK, top, trace.RealFlows{Loop: real.Total() + uint64(top.Potential())}) == nil {
		t.Error("a real flow above the potential flow passed the check")
	}
}

func TestJobAndReadChecksFireOnTamperedOutput(t *testing.T) {
	p := smallest(t)
	want, err := p.job(11, jobShards)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := startFleet(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := svc.close(); err != nil {
			t.Error(err)
		}
	}()
	cli := &client{base: svc.url, http: &http.Client{Timeout: time.Minute}}
	defer cli.http.CloseIdleConnections()
	t0 := time.Now()
	id, err := cli.submit(server.JobRequest{Benchmark: p.name, Seed: 11, K: p.k, Iters: 2, Shards: jobShards})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := cli.wait(id, t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJob(st, want); err != nil {
		t.Fatalf("healthy job: %v", err)
	}
	for name, tamper := range map[string]func(r *server.JobResult){
		"mass":      func(r *server.JobResult) { r.Mass++ },
		"definite":  func(r *server.JobResult) { r.Definite-- },
		"potential": func(r *server.JobResult) { r.Potential++ },
	} {
		bad := *st
		res := *st.Result
		tamper(&res)
		bad.Result = &res
		if checkJob(&bad, want) == nil {
			t.Errorf("a job with a wrong %s passed the check", name)
		}
	}
	failed := *st
	failed.State = "failed"
	if checkJob(&failed, want) == nil {
		t.Error("a failed job passed the check")
	}

	for _, kind := range []string{readProfiles, readPGO} {
		body, err := cli.get("/v1/" + kind + "/" + p.name + "?k=" + strconv.Itoa(p.k) + "&iters=2")
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRead(kind, body, p.k); err != nil {
			t.Fatalf("healthy %s read: %v", kind, err)
		}
		if checkRead(kind, body[:len(body)/2], p.k) == nil {
			t.Errorf("a truncated %s body passed the check", kind)
		}
		if checkRead(kind, bytes.Replace(body, []byte("{"), []byte("["), 1), p.k) == nil {
			t.Errorf("a corrupted %s body passed the check", kind)
		}
		if checkRead(kind, body, p.k+1) == nil {
			t.Errorf("a %s body of the wrong degree passed the check", kind)
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
