package lp

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64 bit for bit,
// treating +0 and −0 as equal.
func sameBits(a, b float64) bool {
	if a == 0 && b == 0 { //lint:allow floateq — exact zero test: the sign of zero is the one permitted difference
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomSparseCol draws a column with 1..4 nonzeros on distinct rows.
func randomSparseCol(rng *rand.Rand, m int) ([]int32, []float64) {
	k := 1 + rng.Intn(4)
	if k > m {
		k = m
	}
	rows := rng.Perm(m)[:k]
	idx := make([]int32, k)
	val := make([]float64, k)
	for i, r := range rows {
		idx[i] = int32(r)
		val[i] = rng.NormFloat64()
	}
	return idx, val
}

// randomFactor factorizes a random sparse nonsingular basis of m rows and
// then applies up to nEtas product-form updates, as pivots would.
func randomFactor(t *testing.T, rng *rand.Rand, m, nEtas int) *basisFactor {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		// Each column owns one row of a random permutation, so every row is
		// covered; two in three also carry up to three off-diagonal entries,
		// the rest stay slack-like unit columns as in branch & bound bases.
		perm := rng.Perm(m)
		colIdx := make([][]int32, m)
		colVal := make([][]float64, m)
		for i := 0; i < m; i++ {
			colIdx[i] = []int32{int32(perm[i])}
			colVal[i] = []float64{1 + rng.Float64()}
			if rng.Intn(3) == 0 {
				continue
			}
			for _, r := range rng.Perm(m)[:rng.Intn(min(m, 4))] {
				if r != perm[i] {
					colIdx[i] = append(colIdx[i], int32(r))
					colVal[i] = append(colVal[i], rng.NormFloat64())
				}
			}
		}
		f := new(basisFactor)
		if !f.factorize(m, func(i int) ([]int32, []float64) { return colIdx[i], colVal[i] }) {
			continue
		}
		w := make([]float64, m)
		scratch := make([]float64, m)
		for e := 0; e < nEtas; e++ {
			idx, val := randomSparseCol(rng, m)
			f.ftran(idx, val, w, scratch)
			r := -1
			for i, v := range w {
				if math.Abs(v) > 1e-3 && (r < 0 || rng.Intn(2) == 0) {
					r = i
				}
			}
			if r >= 0 {
				f.update(w, r)
			}
		}
		return f
	}
	t.Fatalf("no nonsingular random basis of size %d in 50 attempts", m)
	return nil
}

// TestBtranUnitMatchesBtran checks the dual pivot row's reach-limited
// BTRAN against the general one on random sparse bases with eta files of
// 0..Refactor entries: same values bit for bit (signed zero aside), and a
// nonzero-row bitmap that is exactly ρ's pattern.
func TestBtranUnitMatchesBtran(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	refactor := Options{}.withDefaults(1).Refactor
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(150)
		f := randomFactor(t, rng, m, rng.Intn(refactor+1))
		c := make([]float64, m)
		y := make([]float64, m)
		rho := make([]float64, m)
		rows := make([]uint64, bitWords(m))
		for r := 0; r < m; r++ {
			clear(c)
			c[r] = 1
			f.btran(c, y)
			f.btranUnit(r, rho, rows)
			for i := 0; i < m; i++ {
				if !sameBits(y[i], rho[i]) {
					t.Fatalf("trial %d (m=%d, %d etas) r=%d: row %d: btran %v, unit %v",
						trial, m, f.nEtas(), r, i, y[i], rho[i])
				}
				marked := rows[i>>6]&(1<<(i&63)) != 0
				if marked != (rho[i] != 0) { //lint:allow floateq — the bitmap must mark exactly the true nonzeros
					t.Fatalf("trial %d r=%d: row %d marked=%v with ρ=%v", trial, r, i, marked, rho[i])
				}
			}
		}
		for i := range f.cPos {
			if f.cPos[i] != 0 || f.cFac[i] != 0 { //lint:allow floateq — scratch must come back exactly zeroed
				t.Fatalf("trial %d: unit BTRAN left scratch dirty at %d", trial, i)
			}
		}
	}
}

// TestPivotRowMatchesColumnDots checks the row-wise pivot row against the
// column dot product ρ·a_j over the CSC matrix, bit for bit, for every
// structural and slack column, on random sparse problems whose rows list
// their columns in arbitrary order.
func TestPivotRowMatchesColumnDots(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(150), 1+rng.Intn(100)
		p := NewProblem(n)
		for r := 0; r < m; r++ {
			k := rng.Intn(6)
			if k > n {
				k = n
			}
			idx := rng.Perm(n)[:k]
			val := make([]float64, k)
			for i := range val {
				val[i] = rng.NormFloat64()
			}
			p.AddConstraint(idx, val, Op(rng.Intn(3)), rng.NormFloat64())
		}
		s := new(simplex)
		s.init(p, Options{}.withDefaults(m))
		clear(s.rhoNZ)
		for r := 0; r < m; r++ {
			s.rho[r] = 0
			switch rng.Intn(4) {
			case 0:
				s.rho[r] = rng.NormFloat64()
			case 1:
				s.rho[r] = rng.NormFloat64() * 1e-12
			}
			if s.rho[r] != 0 { //lint:allow floateq — the bitmap marks exactly the true nonzeros
				s.rhoNZ[r>>6] |= 1 << (r & 63)
			}
		}
		s.pivotRow()
		for j := 0; j < n+m; j++ {
			var dot float64
			for q := s.colStart[j]; q < s.colStart[j+1]; q++ {
				dot += s.rho[s.colRow[q]] * s.colA[q]
			}
			if s.touched[j>>6]&(1<<(j&63)) == 0 {
				if dot != 0 { //lint:allow floateq — an untouched column must have an exactly zero dot product
					t.Fatalf("trial %d: column %d untouched but ρ·a_j = %v", trial, j, dot)
				}
				continue
			}
			if math.Float64bits(s.dualA[j]) != math.Float64bits(dot) {
				t.Fatalf("trial %d: column %d: row-wise α %v, column dot %v", trial, j, s.dualA[j], dot)
			}
		}
	}
}
