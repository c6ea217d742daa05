package estimate

import (
	"fmt"
	"testing"

	"pathprof/internal/instrument"
	"pathprof/internal/interp"
	"pathprof/internal/lang"
	"pathprof/internal/profile"
	"pathprof/internal/trace"
)

// The estimation properties are validated end-to-end against ground truth on
// programs covering all crossing kinds:
//
//   1. Soundness: every bound brackets the real frequency, per variable.
//   2. Monotonicity: definite flow never drops and potential flow never
//      rises as the profiled degree k increases.
//   3. Exactness: at k = maximum degree, lower == real == upper everywhere.
//
// Both constraint modes (Paper and Extended) must satisfy all three.

var estPrograms = map[string]string{
	"loopy": `
		func main() {
			var t = 0;
			for (var outer = 0; outer < 300; outer = outer + 1) {
				var i = 0;
				while (i < 3 + rand(3)) {
					if (rand(4) == 0) { t = t + 1; } else {
						if (rand(3) == 0) { t = t + 2; } else { t = t - 1; }
					}
					i = i + 1;
				}
			}
			print(t);
		}
	`,
	"breaky": `
		func main() {
			var s = 0;
			for (var i = 0; i < 120; i = i + 1) {
				var j = 0;
				while (j < 8) {
					j = j + 1;
					if (rand(6) == 0) { break; }
					if (j % 2 == 0) { s = s + 1; } else { s = s - 1; }
				}
			}
			print(s);
		}
	`,
	"nestloop": `
		func main() {
			var s = 0;
			for (var i = 0; i < 40; i = i + 1) {
				for (var j = 0; j < 3; j = j + 1) {
					if (rand(2) == 0) { s = s + 1; }
				}
			}
			print(s);
		}
	`,
	"callmix": `
		var acc = 0;
		func helper(x) {
			if (x % 3 == 0) { return x + 1; }
			if (x % 3 == 1) { return x * 2; }
			return x - 1;
		}
		func driver(n) {
			var r = 0;
			if (n > 5) { r = helper(n); } else { r = helper(n + 10); }
			if (r % 2 == 0) { r = r + helper(r); }
			return r;
		}
		func main() {
			for (var i = 0; i < 90; i = i + 1) {
				acc = acc + driver(rand(12));
			}
			print(acc);
		}
	`,
	"fptr": `
		func inc(x) { return x + 1; }
		func dec(x) { if (x > 0) { return x - 1; } return 0; }
		func main() {
			var s = 0;
			for (var i = 0; i < 70; i = i + 1) {
				var f = @inc;
				if (rand(3) == 0) { f = @dec; }
				s = f(s);
			}
			print(s);
		}
	`,
}

type estEnv struct {
	info *profile.Info
	tr   *trace.Tracer
	// counters per k (index k+1; index 0 is k=-1).
	counters []*profile.Counters
	maxK     int
}

func buildEnv(t *testing.T, src string, seed uint64) *estEnv {
	t.Helper()
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	info, err := profile.Analyze(prog, profile.Limits{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	mt := interp.New(prog, seed)
	tr := trace.NewTracer(info, mt)
	if err := mt.Run(); err != nil {
		t.Fatalf("trace run: %v", err)
	}
	if tr.Err != nil {
		t.Fatalf("tracer: %v", tr.Err)
	}
	env := &estEnv{info: info, tr: tr, maxK: info.MaxDegree()}
	for k := -1; k <= env.maxK; k++ {
		m := interp.New(prog, seed)
		rt, err := instrument.New(info, instrument.Config{K: k, Loops: k >= 0, Interproc: k >= 0}, m)
		if err != nil {
			t.Fatalf("instrument: %v", err)
		}
		if err := m.Run(); err != nil {
			t.Fatalf("instrumented run: %v", err)
		}
		if rt.Err != nil {
			t.Fatalf("runtime: %v", rt.Err)
		}
		env.counters = append(env.counters, rt.Counters())
	}
	return env
}

func (e *estEnv) at(k int) *profile.Counters { return e.counters[k+1] }

func checkLoopProperties(t *testing.T, env *estEnv, mode Mode) {
	t.Helper()
	pairs, err := env.tr.LoopPairs()
	if err != nil {
		t.Fatal(err)
	}
	for fidx, fi := range env.info.Funcs {
		for _, li := range fi.Loops {
			n := li.LP.Count()
			real := make([]int64, n*n)
			var realTotal int64
			for pk, cnt := range pairs {
				if pk.Func == fidx && pk.Loop == li.Index {
					real[pk.I*n+pk.J] = int64(cnt)
					realTotal += int64(cnt)
				}
			}
			var prevDef, prevPot int64 = -1, -1
			for k := -1; k <= env.maxK; k++ {
				c := env.at(k)
				res, err := Loop(fi, li, c.BL[fidx], c.Loop, k, mode)
				if err != nil {
					t.Fatalf("%s loop %d k=%d: %v", fi.Fn.Name, li.Index, k, err)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						lo, hi := res.Bounds(int64(i), int64(j))
						if lo > real[i*n+j] || hi < real[i*n+j] {
							t.Fatalf("%s loop %d k=%d mode=%v pair(%d,%d): [%d,%d] misses real %d",
								fi.Fn.Name, li.Index, k, mode, i, j, lo, hi, real[i*n+j])
						}
					}
				}
				def, pot := res.Definite(), res.Potential()
				if def > realTotal || pot < realTotal {
					t.Fatalf("%s loop %d k=%d: flow [%d,%d] misses real %d",
						fi.Fn.Name, li.Index, k, def, pot, realTotal)
				}
				if k >= 0 {
					if def < prevDef || (prevPot >= 0 && pot > prevPot) {
						t.Fatalf("%s loop %d k=%d: precision regressed (def %d->%d, pot %d->%d)",
							fi.Fn.Name, li.Index, k, prevDef, def, prevPot, pot)
					}
				}
				prevDef, prevPot = def, pot
				if k == env.maxK {
					if def != realTotal || pot != realTotal {
						t.Fatalf("%s loop %d at max degree %d: [%d,%d] != real %d",
							fi.Fn.Name, li.Index, k, def, pot, realTotal)
					}
					if res.Exact() != n*n {
						t.Fatalf("%s loop %d at max degree: %d/%d exact",
							fi.Fn.Name, li.Index, res.Exact(), n*n)
					}
				}
			}
		}
	}
}

func checkInterProperties(t *testing.T, env *estEnv, mode Mode) {
	t.Helper()
	for ck, calls := range env.tr.Calls {
		caller := env.info.Funcs[ck.Caller]
		cs := caller.CallSites[ck.Site]
		callee := env.info.Funcs[ck.Callee]

		// Ground truth per variable.
		realT1 := map[[2]int64]int64{}
		var realT1Total int64
		for adj, n := range env.tr.T1 {
			if adj.Caller == ck.Caller && adj.Site == ck.Site && adj.Callee == ck.Callee {
				realT1[[2]int64{adj.Prefix, adj.Q}] = int64(n)
				realT1Total += int64(n)
			}
		}
		realT2 := map[[2]int64]int64{}
		var realT2Total int64
		for adj, n := range env.tr.T2 {
			if adj.Caller == ck.Caller && adj.Site == ck.Site && adj.Callee == ck.Callee {
				p, err := caller.DAG.PathForID(adj.CallerPath)
				if err != nil {
					t.Fatal(err)
				}
				sfx, err := trace.SuffixBlocks(caller, p, cs.Block)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := caller.Suffixes(cs)
				if err != nil {
					t.Fatal(err)
				}
				si := ss.IndexOf(sfx)
				if si < 0 {
					t.Fatalf("suffix of path %d not enumerated", adj.CallerPath)
				}
				realT2[[2]int64{adj.Q, int64(si)}] += int64(n)
				realT2Total += int64(n)
			}
		}
		if uint64(realT1Total) != calls || uint64(realT2Total) != calls {
			t.Fatalf("call %v: %d calls but %d T1 / %d T2 pairs", ck, calls, realT1Total, realT2Total)
		}

		var prevDef1, prevPot1, prevDef2, prevPot2 int64 = -1, -1, -1, -1
		for k := -1; k <= env.maxK; k++ {
			c := env.at(k)
			r1, err := TypeI(env.info, caller, cs, ck.Callee, c.BL[ck.Caller], c.BL[ck.Callee], c.TypeI, calls, k, mode)
			if err != nil {
				t.Fatalf("TypeI %v k=%d: %v", ck, k, err)
			}
			ps, err := caller.Prefixes(cs)
			if err != nil {
				t.Fatal(err)
			}
			for key, real := range realT1 {
				pi := ps.IndexOfAccum(key[0])
				if pi < 0 {
					t.Fatalf("T1 %v: prefix accum %d not enumerated", ck, key[0])
				}
				lo, hi := r1.Bounds(int64(pi), key[1])
				if lo > real || hi < real {
					t.Fatalf("T1 %v k=%d var(%d,%d): [%d,%d] misses %d",
						ck, k, key[0], key[1], lo, hi, real)
				}
			}
			def1, pot1 := r1.Definite(), r1.Potential()
			if def1 > realT1Total || pot1 < realT1Total {
				t.Fatalf("T1 %v k=%d: [%d,%d] misses %d", ck, k, def1, pot1, realT1Total)
			}
			if k >= 0 && (def1 < prevDef1 || (prevPot1 >= 0 && pot1 > prevPot1)) {
				t.Fatalf("T1 %v k=%d: precision regressed", ck, k)
			}
			prevDef1, prevPot1 = def1, pot1
			if k == env.maxK && (def1 != realT1Total || pot1 != realT1Total) {
				t.Fatalf("T1 %v at max degree: [%d,%d] != %d", ck, def1, pot1, realT1Total)
			}

			r2, err := TypeII(env.info, caller, cs, ck.Callee, c.BL[ck.Caller], c.BL[ck.Callee], c.TypeII, calls, k, mode)
			if err != nil {
				t.Fatalf("TypeII %v k=%d: %v", ck, k, err)
			}
			for key, real := range realT2 {
				lo, hi := r2.Bounds(key[0], key[1])
				if lo > real || hi < real {
					t.Fatalf("T2 %v k=%d var(q=%d,s=%d): [%d,%d] misses %d",
						ck, k, key[0], key[1], lo, hi, real)
				}
			}
			def2, pot2 := r2.Definite(), r2.Potential()
			if def2 > realT2Total || pot2 < realT2Total {
				t.Fatalf("T2 %v k=%d: [%d,%d] misses %d", ck, k, def2, pot2, realT2Total)
			}
			if k >= 0 && (def2 < prevDef2 || (prevPot2 >= 0 && pot2 > prevPot2)) {
				t.Fatalf("T2 %v k=%d: precision regressed", ck, k)
			}
			prevDef2, prevPot2 = def2, pot2
			if k == env.maxK && (def2 != realT2Total || pot2 != realT2Total) {
				t.Fatalf("T2 %v at max degree: [%d,%d] != %d", ck, def2, pot2, realT2Total)
			}
			_ = callee
		}
	}
}

func TestEstimationProperties(t *testing.T) {
	for name, src := range estPrograms {
		for _, mode := range []Mode{Paper, Extended} {
			t.Run(fmt.Sprintf("%s/%v", name, mode), func(t *testing.T) {
				env := buildEnv(t, src, 1234)
				checkLoopProperties(t, env, mode)
				checkInterProperties(t, env, mode)
			})
		}
	}
}

// TestExtendedAtLeastAsTight verifies the ablation claim: Extended mode's
// bounds are never looser than Paper mode's.
func TestExtendedAtLeastAsTight(t *testing.T) {
	env := buildEnv(t, estPrograms["callmix"], 77)
	for fidx, fi := range env.info.Funcs {
		for _, li := range fi.Loops {
			for k := -1; k <= env.maxK; k++ {
				c := env.at(k)
				rp, err := Loop(fi, li, c.BL[fidx], c.Loop, k, Paper)
				if err != nil {
					t.Fatal(err)
				}
				re, err := Loop(fi, li, c.BL[fidx], c.Loop, k, Extended)
				if err != nil {
					t.Fatal(err)
				}
				if re.Definite() < rp.Definite() || re.Potential() > rp.Potential() {
					t.Fatalf("%s loop %d k=%d: extended looser than paper", fi.Fn.Name, li.Index, k)
				}
			}
		}
	}
}
