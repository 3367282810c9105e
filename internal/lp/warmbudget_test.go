package lp

import (
	"math"
	"math/rand"
	"testing"

	"nocdeploy/internal/numeric"
)

// relaxationLP is a branch & bound style relaxation: [0,1] columns under
// sparse packing rows and a few covering rows, big enough that a branched
// child needs a real number of dual pivots.
func relaxationLP(rng *rand.Rand) *Problem {
	n, rows := 30+rng.Intn(20), 15+rng.Intn(15)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetBounds(j, 0, 1)
		p.Cost[j] = -rng.Float64()
	}
	for r := 0; r < rows; r++ {
		var idx []int
		var val []float64
		for _, j := range rng.Perm(n)[:4+rng.Intn(6)] {
			idx = append(idx, j)
			val = append(val, 0.5+rng.Float64())
		}
		op, rhs := LE, 1+2*rng.Float64()
		if r%5 == 4 {
			op, rhs = GE, 0.5*rng.Float64()
		}
		p.AddConstraint(idx, val, op, rhs)
	}
	return p
}

// branch returns p with up to k columns fixed to the floor or ceiling of
// their value in x, the way a branch & bound dive narrows a node.
func branch(rng *rand.Rand, p *Problem, x []float64, k int) *Problem {
	c := *p
	c.Lower = append([]float64(nil), p.Lower...)
	c.Upper = append([]float64(nil), p.Upper...)
	for _, j := range rng.Perm(p.NumCols)[:k] {
		if rng.Intn(2) == 0 {
			c.Upper[j] = math.Floor(x[j])
		} else {
			c.Lower[j] = math.Ceil(x[j])
		}
		if c.Lower[j] > c.Upper[j] {
			c.Lower[j] = c.Upper[j]
		}
	}
	return &c
}

// solveWarm solves p under opt, which carries a WarmBasis, and checks the
// budget contract: a warm solve never spends more than rows+100 dual
// pivots, nor more than a test-lowered budget.
func solveWarm(t *testing.T, p *Problem, opt Options) *Solution {
	t.Helper()
	opt.WantBasis = true
	sol, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	budget := len(p.Cons) + 100
	if opt.dualBudget > 0 {
		budget = min(budget, opt.dualBudget)
	}
	if sol.DualIters > budget {
		t.Fatalf("warm solve took %d dual pivots, budget is %d", sol.DualIters, budget)
	}
	return sol
}

// TestWarmBudgetStallMatchesCold: a warm start whose budget runs out
// before primal feasibility falls back to a cold start, and that solve
// must agree with a plain cold solve of the same node on status and
// objective.
func TestWarmBudgetStallMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stalls := 0
	for trial := 0; trial < 300; trial++ {
		p := relaxationLP(rng)
		root, err := Solve(p, Options{WantBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal || root.Basis == nil {
			continue
		}
		node := branch(rng, p, root.X, 1+rng.Intn(8))
		free := solveWarm(t, node, Options{WarmBasis: root.Basis})
		if !free.Warm || free.DualIters < 2 {
			continue
		}
		// Budget one pivot short of what this warm start needs.
		tight := Options{WarmBasis: root.Basis, dualBudget: free.DualIters - 1}
		stalled := solveWarm(t, node, tight)
		if stalled.Warm || stalled.DualIters != tight.dualBudget {
			t.Fatalf("trial %d: budget %d against a %d-pivot warm start: warm=%v after %d dual pivots",
				trial, tight.dualBudget, free.DualIters, stalled.Warm, stalled.DualIters)
		}
		cold, err := Solve(node, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stalled.Status != cold.Status {
			t.Fatalf("trial %d: stalled warm start %v, cold solve %v", trial, stalled.Status, cold.Status)
		}
		if cold.Status == Optimal && !numeric.Eq(stalled.Obj, cold.Obj) {
			t.Fatalf("trial %d: stalled warm start objective %v, cold %v", trial, stalled.Obj, cold.Obj)
		}
		stalls++
	}
	if stalls < 50 {
		t.Fatalf("only %d budget stalls exercised; expected ≥ 50", stalls)
	}
}

// TestWarmStartMalformedBasisMatchesCold: a snapshot that repeats a
// basic column is refused, and the cold solve that replaces it must agree
// with a plain cold solve — no column of the refused snapshot may stay
// marked basic outside the crash basis.
func TestWarmStartMalformedBasisMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		p := relaxationLP(rng)
		root, err := Solve(p, Options{WantBasis: true})
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal || root.Basis == nil {
			continue
		}
		node := branch(rng, p, root.X, 1+rng.Intn(3))
		bad := &Basis{Basic: append([]int32(nil), root.Basis.Basic...), NonBasic: root.Basis.NonBasic}
		last := len(bad.Basic) - 1
		bad.Basic[0] = bad.Basic[last] // repeated: refused after the others are installed
		got, err := Solve(node, Options{WarmBasis: bad})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(node, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Warm || got.Status != cold.Status {
			t.Fatalf("trial %d: malformed snapshot gave warm=%v %v, cold solve %v", trial, got.Warm, got.Status, cold.Status)
		}
		if cold.Status == Optimal && !numeric.Eq(got.Obj, cold.Obj) {
			t.Fatalf("trial %d: malformed snapshot objective %v, cold %v", trial, got.Obj, cold.Obj)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d malformed snapshots checked", checked)
	}
}

// TestWarmStartTinyPivotMatchesCold: in a badly scaled row (coefficients
// spanning 1e8) the only column able to repair the violated basic variable
// has a pivot far below the row's largest |α_j|. The warm start may skip
// that pivot, but it must not call the node Infeasible unless the column
// cannot repair the row even at its far bound: either way it agrees with
// a cold solve of the same node.
func TestWarmStartTinyPivotMatchesCold(t *testing.T) {
	// x0 − 1e3·x1 + 1e-5·x2 = 5 with x0 free of cost: the root puts x0
	// basic at 5. Capping x0 below 5 can only be met by raising x2
	// (α = 1e-5, at most 1e-4 of repair over x2 ∈ [0, 10]); raising x1
	// (α = −1e3) moves x0 the wrong way.
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 10)
	}
	p.Cost[1], p.Cost[2] = 1, 1
	p.AddConstraint([]int{0, 1, 2}, []float64{1, -1e3, 1e-5}, EQ, 5)
	root, err := Solve(p, Options{WantBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	if root.Status != Optimal || root.Basis == nil || root.Basis.Basic[0] != 0 {
		t.Fatalf("root: %v with basis %+v, want Optimal with x0 basic", root.Status, root.Basis)
	}
	for _, tc := range []struct {
		cap  float64
		want Status
		obj  float64
	}{
		{5 - 1e-5, Optimal, 1},    // x2 = 1 repairs the row
		{5 - 1e-3, Infeasible, 0}, // would need x2 = 100
	} {
		node := *p
		node.Upper = append([]float64(nil), p.Upper...)
		node.Upper[0] = tc.cap
		warm := solveWarm(t, &node, Options{WarmBasis: root.Basis})
		cold, err := Solve(&node, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != tc.want || (tc.want == Optimal && !numeric.Eq(cold.Obj, tc.obj)) {
			t.Fatalf("x0 ≤ %v: cold solve %v obj %v, want %v obj %v", tc.cap, cold.Status, cold.Obj, tc.want, tc.obj)
		}
		if warm.Status != cold.Status || (cold.Status == Optimal && !numeric.Eq(warm.Obj, cold.Obj)) {
			t.Fatalf("x0 ≤ %v: warm start %v obj %v, cold solve %v obj %v", tc.cap, warm.Status, warm.Obj, cold.Status, cold.Obj)
		}
	}
}
