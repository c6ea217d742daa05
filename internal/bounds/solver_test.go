package bounds

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Result {
	t.Helper()
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return r
}

// TestPaperTable5OL0 reproduces the paper's Section 2.2.3 example at
// overlap 0. Variables are the nine interesting paths (i!j), i,j in {1,2,3},
// indexed i*3+j (0-based). Profiled inputs: F = (500,500,500),
// E = (250,250,0), X = (0,0,500), row groups OF_{i!(P1)} = (500,500,0).
func TestPaperTable5OL0(t *testing.T) {
	caps := make([]int64, 9)
	F := []int64{500, 500, 500}
	E := []int64{250, 250, 0}
	X := []int64{0, 0, 500}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			fp := F[i] - X[i]
			fq := F[j] - E[j]
			if fp < fq {
				caps[i*3+j] = fp
			} else {
				caps[i*3+j] = fq
			}
		}
	}
	p := &Problem{
		N:    9,
		Caps: caps,
		Groups: []Group{
			{Vars: []int{0, 1, 2}, Value: 500, Equality: true},
			{Vars: []int{3, 4, 5}, Value: 500, Equality: true},
			{Vars: []int{6, 7, 8}, Value: 0, Equality: true},
		},
	}
	r := solveOK(t, p)
	wantU := []int64{250, 250, 500, 250, 250, 500, 0, 0, 0}
	for i, w := range wantU {
		if r.Upper[i] != w {
			t.Fatalf("U[%d] = %d; want %d (paper Table 5, OL-0 column)", i, r.Upper[i], w)
		}
		if r.Lower[i] != 0 {
			t.Fatalf("L[%d] = %d; want 0", i, r.Lower[i])
		}
	}
	if r.Definite() != 0 || r.Potential() != 2000 {
		t.Fatalf("definite/potential = %d/%d; want 0/2000 (paper: ±100%%)", r.Definite(), r.Potential())
	}
}

// TestPaperTable5OL1 is the same loop at overlap 1. The degree-1 cuts are:
// sequence 1 cuts to itself (singleton group), sequences 2 and 3 share the
// prefix P1=>P2. Observed OF values: row 1 = (250, 250); row 2 = (0, 500);
// row 3 = (0, 0).
//
// NOTE: the solved bounds here are *tighter on the definite side* than the
// paper's hand-worked Table 5, which reports L(2!3)=0 after a single
// propagation round. Iterating Eq. 8 to its fixpoint forces
// L(2!3) = OF(2,P1P2) − U(2!2) = 500 − 250 = 250 (indeed the real frequency
// is 250). Every bound below still brackets the real frequencies
// (250, 0, 250, 0, 250, 250, 0, 0, 0).
func TestPaperTable5OL1(t *testing.T) {
	caps := make([]int64, 9)
	F := []int64{500, 500, 500}
	E := []int64{250, 250, 0}
	X := []int64{0, 0, 500}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			fp := F[i] - X[i]
			fq := F[j] - E[j]
			if fp < fq {
				caps[i*3+j] = fp
			} else {
				caps[i*3+j] = fq
			}
		}
	}
	p := &Problem{
		N:    9,
		Caps: caps,
		Groups: []Group{
			{Vars: []int{0}, Value: 250, Equality: true},    // OF(1, seq1)
			{Vars: []int{1, 2}, Value: 250, Equality: true}, // OF(1, P1P2)
			{Vars: []int{3}, Value: 0, Equality: true},      // OF(2, seq1)
			{Vars: []int{4, 5}, Value: 500, Equality: true}, // OF(2, P1P2)
			{Vars: []int{6}, Value: 0, Equality: true},
			{Vars: []int{7, 8}, Value: 0, Equality: true},
		},
	}
	r := solveOK(t, p)
	real := []int64{250, 0, 250, 0, 250, 250, 0, 0, 0}
	wantL := []int64{250, 0, 0, 0, 0, 250, 0, 0, 0}
	wantU := []int64{250, 250, 250, 0, 250, 500, 0, 0, 0}
	for i := range real {
		if r.Lower[i] > real[i] || r.Upper[i] < real[i] {
			t.Fatalf("var %d: [%d,%d] does not bracket real %d", i, r.Lower[i], r.Upper[i], real[i])
		}
		if r.Lower[i] != wantL[i] || r.Upper[i] != wantU[i] {
			t.Fatalf("var %d: [%d,%d]; want [%d,%d]", i, r.Lower[i], r.Upper[i], wantL[i], wantU[i])
		}
	}
	// Exactness improves over OL-0: five of nine pins (1!1, 2!1 and all
	// of row 3), versus three zero rows-of-row-3 pins at OL-0.
	if r.Exact() != 5 {
		t.Fatalf("Exact = %d; want 5", r.Exact())
	}
	// Definite/potential: 500/1500 here versus the paper's single-round
	// 250/1250; both bracket the real flow of 1000, ours tighter below,
	// theirs tighter above (their U(2!3)=250 does not follow from
	// Eqs. 7/8; see the doc comment).
	if r.Definite() != 500 || r.Potential() != 1500 {
		t.Fatalf("definite/potential = %d/%d; want 500/1500", r.Definite(), r.Potential())
	}
}

func TestInequalityGroupsNeverRaiseLowers(t *testing.T) {
	p := &Problem{
		N: 2,
		Groups: []Group{
			{Vars: []int{0, 1}, Value: 100, Equality: false},
		},
		Caps: []int64{10, 100},
	}
	r := solveOK(t, p)
	if r.Lower[0] != 0 || r.Lower[1] != 0 {
		t.Fatalf("lowers = %v; inequality groups must not raise lowers", r.Lower)
	}
	if r.Upper[0] != 10 || r.Upper[1] != 100 {
		t.Fatalf("uppers = %v", r.Upper)
	}
}

func TestEqualityPinsSingleton(t *testing.T) {
	p := &Problem{
		N:      1,
		Groups: []Group{{Vars: []int{0}, Value: 42, Equality: true}},
	}
	r := solveOK(t, p)
	if r.Lower[0] != 42 || r.Upper[0] != 42 {
		t.Fatalf("bounds = [%d,%d]; want [42,42]", r.Lower[0], r.Upper[0])
	}
	if r.Exact() != 1 {
		t.Fatalf("Exact = %d", r.Exact())
	}
}

func TestUncappedUnconstrainedStaysInf(t *testing.T) {
	p := &Problem{N: 2, Groups: []Group{{Vars: []int{0}, Value: 5, Equality: true}}}
	r := solveOK(t, p)
	if r.Upper[1] != Inf {
		t.Fatalf("Upper[1] = %d; want Inf", r.Upper[1])
	}
	if r.Lower[1] != 0 {
		t.Fatalf("Lower[1] = %d", r.Lower[1])
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"negative N", &Problem{N: -1}},
		{"cap length", &Problem{N: 2, Caps: []int64{1}}},
		{"negative cap", &Problem{N: 1, Caps: []int64{-3}}},
		{"negative value", &Problem{N: 1, Groups: []Group{{Vars: []int{0}, Value: -1}}}},
		{"bad index", &Problem{N: 1, Groups: []Group{{Vars: []int{1}, Value: 1}}}},
		{"duplicate var", &Problem{N: 2, Groups: []Group{{Vars: []int{0, 0}, Value: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(tc.p); err == nil {
				t.Fatal("Solve accepted malformed problem")
			}
		})
	}
}

// randomConsistentProblem draws hidden true values, then builds groups and
// caps that are consistent with them (equality groups sum exactly; caps are
// at least the true value).
func randomConsistentProblem(r *rand.Rand) (*Problem, []int64) {
	n := 2 + r.Intn(10)
	truth := make([]int64, n)
	for i := range truth {
		truth[i] = int64(r.Intn(50))
	}
	p := &Problem{N: n, Caps: make([]int64, n)}
	for i := range truth {
		p.Caps[i] = truth[i] + int64(r.Intn(30))
	}
	groups := 1 + r.Intn(6)
	for gi := 0; gi < groups; gi++ {
		var vars []int
		var sum int64
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				vars = append(vars, v)
				sum += truth[v]
			}
		}
		if len(vars) == 0 {
			continue
		}
		eq := r.Intn(2) == 0
		val := sum
		if !eq {
			val += int64(r.Intn(20)) // slack is fine for ≤ groups
		}
		p.Groups = append(p.Groups, Group{Vars: vars, Value: val, Equality: eq})
	}
	return p, truth
}

func TestSolveBracketsTruthOnRandomProblems(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, truth := randomConsistentProblem(r)
		res, err := Solve(p)
		if err != nil {
			return false
		}
		for i, tv := range truth {
			if res.Lower[i] > tv {
				return false
			}
			if res.Upper[i] != Inf && res.Upper[i] < tv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMoreGroupsNeverLoosen checks monotonicity: adding a consistent
// constraint can only tighten the definite/potential flows.
func TestMoreGroupsNeverLoosen(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, truth := randomConsistentProblem(r)
		res1, err := Solve(p)
		if err != nil {
			return false
		}
		// Add one more consistent equality group.
		var vars []int
		var sum int64
		for v := 0; v < p.N; v++ {
			if r.Intn(2) == 0 {
				vars = append(vars, v)
				sum += truth[v]
			}
		}
		if len(vars) == 0 {
			return true
		}
		p.Groups = append(p.Groups, Group{Vars: vars, Value: sum, Equality: true})
		res2, err := Solve(p)
		if err != nil {
			return false
		}
		for i := range res1.Lower {
			if res2.Lower[i] < res1.Lower[i] {
				return false
			}
			if res1.Upper[i] != Inf && res2.Upper[i] > res1.Upper[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConvergesQuickly(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p, _ := randomConsistentProblem(r)
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes > 50 {
			t.Fatalf("trial %d: %d passes", trial, res.Passes)
		}
	}
}

// TestNoProgressOnStuckClamp is an inconsistent problem: x0 is pinned to 3
// while x0 + x1 may not exceed 1. Phase 1 then computes a negative upper
// bound for x1, whose upper bound is already 0; clamping it to 0 moves
// nothing and must not count as progress, so the solver settles at once
// instead of spending its whole pass budget.
func TestNoProgressOnStuckClamp(t *testing.T) {
	p := &Problem{
		N:    2,
		Caps: []int64{5, 5},
		Groups: []Group{
			{Vars: []int{0}, Value: 3, Equality: true},
			{Vars: []int{0, 1}, Value: 1},
		},
	}
	r := solveOK(t, p)
	if r.Passes > 2 {
		t.Fatalf("%d passes; want at most 2", r.Passes)
	}
	if r.Lower[0] != 1 || r.Lower[1] != 0 || r.Upper[0] != 1 || r.Upper[1] != 0 {
		t.Fatalf("bounds [%d %d]/[%d %d]; want [1 0]/[1 0]", r.Lower[0], r.Lower[1], r.Upper[0], r.Upper[1])
	}
}

// TestSolveAllocations pins the solver's allocation budget: the result and
// one bound buffer, however many groups and passes.
func TestSolveAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p, _ := randomConsistentProblem(r)
	for len(p.Groups) < 3 {
		p, _ = randomConsistentProblem(r)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Solve made %.0f allocations; want at most 2", allocs)
	}
}
