package lp

import (
	"math"

	"nocdeploy/internal/numeric"
)

// The presolve pass shrinks a problem before the simplex sees it:
//
//   - singleton rows (one live column) become bounds on that column,
//   - columns with equal bounds are fixed and substituted into the RHS,
//   - columns appearing in no live row are set by their cost sign,
//   - empty rows are checked for consistency and dropped,
//   - row activity bounds conservatively tighten column bounds.
//
// Every reduction is equivalence-preserving, so the reduced problem's
// status (Optimal / Infeasible / Unbounded) transfers to the original,
// and postsolve reconstructs the eliminated variables exactly.

// presolveTightenTol is the minimum improvement (with a safety margin)
// before a tightened bound replaces an original one; anything smaller is
// numerical noise not worth the risk of cutting the optimum.
const presolveTightenTol = 1e-7

type presolveRow struct {
	idx  []int
	val  []float64
	op   Op
	rhs  float64
	live bool
}

type presolver struct {
	p      *Problem
	lo, hi []float64
	rows   []presolveRow
	// fixedVal[j] holds the value of an eliminated column; fixed[j] marks
	// elimination (a column may legitimately be fixed at 0).
	fixedVal []float64
	fixed    []bool
	// colRows[j] counts live rows referencing column j.
	colRows []int
}

// solvePresolved reduces, solves the reduced problem, and maps back.
func solvePresolved(p *Problem, opt Options) (*Solution, error) {
	ps := &presolver{
		p:        p,
		lo:       append([]float64(nil), p.Lower...),
		hi:       append([]float64(nil), p.Upper...),
		fixedVal: make([]float64, p.NumCols),
		fixed:    make([]bool, p.NumCols),
		colRows:  make([]int, p.NumCols),
		rows:     make([]presolveRow, len(p.Cons)),
	}
	for r, c := range p.Cons {
		ps.rows[r] = presolveRow{
			idx:  append([]int(nil), c.Idx...),
			val:  append([]float64(nil), c.Val...),
			op:   c.Op,
			rhs:  c.RHS,
			live: true,
		}
	}

	if ps.reduce() == Infeasible {
		return &Solution{Status: Infeasible, Obj: math.Inf(1)}, nil
	}

	red, colMap, st := ps.buildReduced()
	if st == Infeasible {
		return &Solution{Status: Infeasible, Obj: math.Inf(1)}, nil
	}
	if red == nil {
		// Everything was eliminated: the fixed values are the solution.
		x := ps.postsolve(nil, nil)
		return &Solution{Status: Optimal, X: x, Obj: p.Eval(x)}, nil
	}

	sol, err := solveDirect(red, opt)
	if err != nil {
		return nil, err
	}
	if sol.Status != Optimal {
		// Infeasible/Unbounded/IterLimit transfer directly; X stays nil.
		sol.X = nil
		sol.Basis = nil
		return sol, nil
	}
	x := ps.postsolve(sol.X, colMap)
	sol.X = x
	sol.Obj = p.Eval(x)
	sol.Basis = nil // index space differs from the original problem
	return sol, nil
}

// reduce runs elimination passes to a fixed point (bounded rounds).
// Returns Infeasible when a contradiction is decidable here, Optimal
// otherwise. Unboundedness is never decided during reduction: a ray is
// only a ray if the problem is feasible, so candidate columns stay in
// the reduced problem for the simplex to judge.
func (ps *presolver) reduce() Status {
	const maxRounds = 4
	for round := 0; round < maxRounds; round++ {
		changed := false

		// Row pass: substitute fixed columns, drop empty rows, convert
		// singleton rows to bounds.
		for r := range ps.rows {
			row := &ps.rows[r]
			if !row.live {
				continue
			}
			if ps.substituteFixed(row) {
				changed = true
			}
			switch len(row.idx) {
			case 0:
				if !emptyRowFeasible(row.op, row.rhs) {
					return Infeasible
				}
				row.live = false
				changed = true
			case 1:
				if st := ps.applySingleton(row); st != Optimal {
					return st
				}
				row.live = false
				changed = true
			}
		}

		// Column pass: fix zero-width columns; decide columns that appear
		// in no live row by cost sign.
		ps.countColRows()
		for j := 0; j < ps.p.NumCols; j++ {
			if ps.fixed[j] {
				continue
			}
			if ps.lo[j] > ps.hi[j]+1e-9 {
				return Infeasible
			}
			if ps.hi[j]-ps.lo[j] <= 0 { // exact: bounds already clamped
				ps.fixColumn(j, ps.lo[j])
				changed = true
				continue
			}
			if ps.colRows[j] == 0 {
				// A no-row column whose improving direction is open is an
				// unbounded ray — but only if the rest of the problem is
				// feasible, which the reductions alone cannot decide. Leave
				// the column in the reduced problem: the simplex proves
				// feasibility in phase 1 before it may report Unbounded.
				switch {
				case ps.p.Cost[j] > 0:
					if math.IsInf(ps.lo[j], -1) {
						continue
					}
					ps.fixColumn(j, ps.lo[j])
				case ps.p.Cost[j] < 0:
					if math.IsInf(ps.hi[j], 1) {
						continue
					}
					ps.fixColumn(j, ps.hi[j])
				default:
					v := 0.0
					switch {
					case !math.IsInf(ps.lo[j], -1):
						v = ps.lo[j]
					case !math.IsInf(ps.hi[j], 1):
						v = ps.hi[j]
					}
					ps.fixColumn(j, v)
				}
				changed = true
			}
		}

		// Bound tightening from row activity ranges (conservative: only
		// strict improvements beyond presolveTightenTol, with a margin).
		if ps.tightenBounds() {
			changed = true
		}

		if !changed {
			break
		}
	}
	// The last round's tightening is followed by no column pass, so its
	// bounds are checked here: crossing bounds prove infeasibility, and a
	// crossing within tolerance collapses to a point, as in
	// applySingleton. The simplex must never see lower > upper.
	for j := 0; j < ps.p.NumCols; j++ {
		if ps.fixed[j] || ps.lo[j] <= ps.hi[j] {
			continue
		}
		if ps.lo[j] > ps.hi[j]+1e-9 {
			return Infeasible
		}
		mid := 0.5 * (ps.lo[j] + ps.hi[j])
		ps.lo[j], ps.hi[j] = mid, mid
	}
	return Optimal
}

// substituteFixed folds eliminated columns of a row into its RHS,
// compacting idx/val in place. Reports whether anything changed.
func (ps *presolver) substituteFixed(row *presolveRow) bool {
	k := 0
	changed := false
	for i, j := range row.idx {
		if ps.fixed[j] {
			row.rhs -= row.val[i] * ps.fixedVal[j]
			changed = true
			continue
		}
		row.idx[k] = j
		row.val[k] = row.val[i]
		k++
	}
	row.idx = row.idx[:k]
	row.val = row.val[:k]
	return changed
}

// emptyRowFeasible checks 0 (op) rhs within tolerance.
func emptyRowFeasible(op Op, rhs float64) bool {
	switch op {
	case LE:
		return rhs >= -1e-9
	case GE:
		return rhs <= 1e-9
	}
	return math.Abs(rhs) <= 1e-9
}

// applySingleton converts a one-column row a·x (op) b into bounds on x.
func (ps *presolver) applySingleton(row *presolveRow) Status {
	j, a := row.idx[0], row.val[0]
	if numeric.IsZero(a) {
		if !emptyRowFeasible(row.op, row.rhs) {
			return Infeasible
		}
		return Optimal
	}
	v := row.rhs / a
	lo, hi := math.Inf(-1), math.Inf(1)
	switch row.op {
	case EQ:
		lo, hi = v, v
	case LE:
		if a > 0 {
			hi = v
		} else {
			lo = v
		}
	case GE:
		if a > 0 {
			lo = v
		} else {
			hi = v
		}
	}
	if lo > ps.lo[j] {
		ps.lo[j] = lo
	}
	if hi < ps.hi[j] {
		ps.hi[j] = hi
	}
	if ps.lo[j] > ps.hi[j] {
		if ps.lo[j] > ps.hi[j]+1e-9 {
			return Infeasible
		}
		// Within tolerance: collapse to a point.
		mid := 0.5 * (ps.lo[j] + ps.hi[j])
		ps.lo[j], ps.hi[j] = mid, mid
	}
	return Optimal
}

func (ps *presolver) fixColumn(j int, v float64) {
	ps.fixed[j] = true
	ps.fixedVal[j] = v
	ps.lo[j], ps.hi[j] = v, v
}

func (ps *presolver) countColRows() {
	for j := range ps.colRows {
		ps.colRows[j] = 0
	}
	for r := range ps.rows {
		if !ps.rows[r].live {
			continue
		}
		for _, j := range ps.rows[r].idx {
			ps.colRows[j]++
		}
	}
}

// tightenBounds derives implied column bounds from row activity ranges.
// For a row Σ aᵢxᵢ ≤ b, the partial minimum activity over the other
// columns bounds each xⱼ from above (aⱼ > 0) or below (aⱼ < 0); EQ rows
// tighten from both sides. Only clear improvements are kept, padded with
// a small margin so a tightened bound can never cut the true optimum.
func (ps *presolver) tightenBounds() bool {
	changed := false
	for r := range ps.rows {
		row := &ps.rows[r]
		if !row.live || len(row.idx) < 2 {
			continue
		}
		// Activity range of the whole row under current bounds.
		minAct, maxAct := 0.0, 0.0
		for i, j := range row.idx {
			a := row.val[i]
			if a > 0 {
				minAct += a * ps.lo[j]
				maxAct += a * ps.hi[j]
			} else {
				minAct += a * ps.hi[j]
				maxAct += a * ps.lo[j]
			}
		}
		upperSide := row.op == LE || row.op == EQ
		lowerSide := row.op == GE || row.op == EQ
		for i, j := range row.idx {
			a := row.val[i]
			if numeric.IsZero(a) {
				continue
			}
			// Partial activity excluding column j's own contribution.
			var minRest, maxRest float64
			if a > 0 {
				minRest = minAct - a*ps.lo[j]
				maxRest = maxAct - a*ps.hi[j]
			} else {
				minRest = minAct - a*ps.hi[j]
				maxRest = maxAct - a*ps.lo[j]
			}
			if upperSide && !math.IsInf(minRest, 0) {
				// a·xⱼ ≤ rhs − minRest
				v := (row.rhs - minRest) / a
				margin := 1e-9 * (1 + math.Abs(v))
				if a > 0 {
					if v+margin < ps.hi[j]-presolveTightenTol {
						ps.hi[j] = v + margin
						changed = true
					}
				} else {
					if v-margin > ps.lo[j]+presolveTightenTol {
						ps.lo[j] = v - margin
						changed = true
					}
				}
			}
			if lowerSide && !math.IsInf(maxRest, 0) {
				// a·xⱼ ≥ rhs − maxRest
				v := (row.rhs - maxRest) / a
				margin := 1e-9 * (1 + math.Abs(v))
				if a > 0 {
					if v-margin > ps.lo[j]+presolveTightenTol {
						ps.lo[j] = v - margin
						changed = true
					}
				} else {
					if v+margin < ps.hi[j]-presolveTightenTol {
						ps.hi[j] = v + margin
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// buildReduced assembles the reduced problem over the surviving columns.
// Returns a nil problem when every column was eliminated, and Infeasible
// when a late fixing emptied a row inconsistently. colMap maps reduced
// column index → original column index.
func (ps *presolver) buildReduced() (*Problem, []int, Status) {
	n := ps.p.NumCols
	keep := make([]int, n) // original → reduced, -1 when eliminated
	var colMap []int
	for j := 0; j < n; j++ {
		if ps.fixed[j] {
			keep[j] = -1
			continue
		}
		keep[j] = len(colMap)
		colMap = append(colMap, j)
	}
	if len(colMap) == 0 {
		// Rows must still hold under the fixed values.
		for r := range ps.rows {
			row := &ps.rows[r]
			if !row.live {
				continue
			}
			ps.substituteFixed(row)
			if !emptyRowFeasible(row.op, row.rhs) {
				return nil, nil, Infeasible
			}
		}
		return nil, nil, Optimal
	}
	red := &Problem{
		NumCols: len(colMap),
		Cost:    make([]float64, len(colMap)),
		Lower:   make([]float64, len(colMap)),
		Upper:   make([]float64, len(colMap)),
	}
	for rj, j := range colMap {
		red.Cost[rj] = ps.p.Cost[j]
		red.Lower[rj] = ps.lo[j]
		red.Upper[rj] = ps.hi[j]
	}
	for r := range ps.rows {
		row := &ps.rows[r]
		if !row.live {
			continue
		}
		// A final substitution pass: columns fixed after the last row pass.
		ps.substituteFixed(row)
		if len(row.idx) == 0 {
			if !emptyRowFeasible(row.op, row.rhs) {
				return nil, nil, Infeasible
			}
			continue
		}
		idx := make([]int, len(row.idx))
		for i, j := range row.idx {
			idx[i] = keep[j]
		}
		red.Cons = append(red.Cons, Constraint{
			Idx: idx,
			Val: append([]float64(nil), row.val...),
			Op:  row.op,
			RHS: row.rhs,
		})
	}
	return red, colMap, Optimal
}

// postsolve reconstructs the original variable vector from the reduced
// solution (xr may be nil when everything was eliminated).
func (ps *presolver) postsolve(xr []float64, colMap []int) []float64 {
	x := make([]float64, ps.p.NumCols)
	for j := 0; j < ps.p.NumCols; j++ {
		x[j] = ps.fixedVal[j]
	}
	for rj, j := range colMap {
		x[j] = xr[rj]
	}
	// Clamp to the original bounds: tightened bounds carry small margins.
	for j := 0; j < ps.p.NumCols; j++ {
		if x[j] < ps.p.Lower[j] {
			x[j] = ps.p.Lower[j]
		}
		if x[j] > ps.p.Upper[j] {
			x[j] = ps.p.Upper[j]
		}
	}
	return x
}
