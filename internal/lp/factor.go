package lp

import (
	"math"
	"math/bits"

	"nocdeploy/internal/numeric"
)

// basisFactor is a sparse factorization of the simplex basis: a
// Gilbert–Peierls LU decomposition P·B·Q = L·U of the basis at the last
// refactorization, plus a product-form (PFI) eta file recording every
// pivot since. FTRAN/BTRAN solve against the factors and the eta file in
// O(m + nnz) instead of the O(m²) dense-inverse products the solver used
// before, and the per-pivot update appends one sparse eta vector instead
// of rewriting an m×m inverse.
//
// Index spaces, fixed by construction and used consistently below:
//
//   - "row" indices are original constraint rows (the scatter space of
//     column data and of BTRAN results);
//   - "position" indices are basis positions i (basis[i] = basic column);
//   - "pivot" indices p order the elimination: pivRow[p] is the original
//     row eliminated p-th, colPos[p] the basis position of the column that
//     eliminated it (the column permutation Q, chosen sparsest-first so
//     slack-heavy bases factor with almost no fill).
//
// All storage is flat and append-grown, so a pooled basisFactor reuses its
// backing arrays across refactorizations and across solves.
type basisFactor struct {
	m int

	// L: unit lower triangular by pivot column p. Entries sit on original
	// rows that are eliminated after p (rowPos[lRow] > p always).
	lStart []int32
	lRow   []int32
	lVal   []float64

	// U by factor column t (elimination order). Off-diagonal entries pair
	// (pivot position p < t, value); the diagonal is stored separately.
	uStart []int32
	uPos   []int32
	uVal   []float64
	uDiag  []float64

	pivRow []int32 // pivot order -> original row
	rowPos []int32 // original row -> pivot order; -1 while unpivoted
	colPos []int32 // factor column t -> basis position (the permutation Q)
	posCol []int32 // basis position -> factor column

	// Eta file: one entry per pivot since the last refactorization. Eta e
	// replaces basis position etaR[e] with the FTRAN direction w recorded
	// sparsely (etaPiv[e] = w[etaR[e]], off-pivot entries in etaIdx/etaVal).
	etaStart []int32
	etaIdx   []int32
	etaVal   []float64
	etaR     []int32
	etaPiv   []float64

	// Transposed factor adjacency for the unit BTRAN, rebuilt lazily after
	// each factorization (tValid): uTStart/uTCol list, per factor column
	// p, the later columns t whose U column has an entry at p; lTStart/
	// lTCol list, per pivot p', the earlier pivots p whose L column has an
	// entry on row pivRow[p']. They are the edges a nonzero travels along
	// in the Uᵀ and Lᵀ solves.
	tValid  bool
	uTStart []int32
	uTCol   []int32
	lTStart []int32
	lTCol   []int32

	// Unit BTRAN scratch: cPos (basis-position space) and cFac (factor
	// space) are zero between calls; reach marks factor columns.
	cPos  []float64
	cFac  []float64
	reach []uint64

	// Factorization scratch, kept with the factor so refactorization
	// allocates nothing once grown.
	x       []float64 // dense accumulator, row space
	order   []int32   // reverse-postorder DFS output
	stackR  []int32   // DFS stack: row
	stackC  []int32   // DFS stack: child cursor
	visited []int32   // DFS stamp per row
	stamp   int32
	nnzBuf  []int32 // column-nnz counting-sort buckets scratch
}

// pivotTolFactor rejects pivots smaller than this during elimination; a
// basis whose every candidate pivot is below it is reported singular.
const factorPivotTol = 1e-11

// reset prepares the factor for a basis of m rows, growing (never
// shrinking) its buffers.
func (f *basisFactor) reset(m int) {
	f.m = m
	f.lStart = growI32(f.lStart, m+1)[:1]
	f.lStart[0] = 0
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uStart = growI32(f.uStart, m+1)[:1]
	f.uStart[0] = 0
	f.uPos = f.uPos[:0]
	f.uVal = f.uVal[:0]
	f.uDiag = growF64(f.uDiag, m)[:0]
	f.pivRow = growI32(f.pivRow, m)[:0]
	f.rowPos = growI32(f.rowPos, m)[:m]
	f.colPos = growI32(f.colPos, m)[:0]
	f.posCol = growI32(f.posCol, m)[:m]
	f.clearEtas()
	f.tValid = false
	f.x = growF64(f.x, m)[:m]
	f.order = growI32(f.order, m)[:m]
	f.stackR = growI32(f.stackR, m)[:m]
	f.stackC = growI32(f.stackC, m)[:m]
	if cap(f.visited) < m {
		f.visited = make([]int32, m)
		f.stamp = 0
	}
	f.visited = f.visited[:m]
	for i := 0; i < m; i++ {
		f.rowPos[i] = -1
		f.x[i] = 0
	}
}

// clearEtas drops the eta file (after a refactorization).
func (f *basisFactor) clearEtas() {
	f.etaStart = growI32(f.etaStart, 1)[:1]
	f.etaStart[0] = 0
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.etaR = f.etaR[:0]
	f.etaPiv = f.etaPiv[:0]
}

// nEtas reports how many pivots the eta file currently carries.
func (f *basisFactor) nEtas() int { return len(f.etaR) }

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// factorize computes P·B·Q = L·U for the basis whose columns are delivered
// by col(i) (sparse, row-space indices) for basis positions i = 0..m-1.
// Columns are eliminated sparsest-first (a stable counting sort on nnz),
// which keeps fill near zero on the slack-dominated bases branch & bound
// produces. It reports false on a (near-)singular basis.
func (f *basisFactor) factorize(m int, col func(i int) ([]int32, []float64)) bool {
	f.reset(m)

	// Column order: stable counting sort by nnz ascending. Deterministic —
	// equal-nnz columns keep basis-position order — so factorization, and
	// with it every pivot the solver takes, is reproducible run to run.
	const maxBucket = 64
	buckets := growI32(f.nnzBuf, maxBucket+1)
	for b := range buckets {
		buckets[b] = 0
	}
	for i := 0; i < m; i++ {
		idx, _ := col(i)
		b := len(idx)
		if b > maxBucket {
			b = maxBucket
		}
		buckets[b]++
	}
	var sum int32
	for b := 0; b <= maxBucket; b++ {
		c := buckets[b]
		buckets[b] = sum
		sum += c
	}
	f.colPos = f.colPos[:m]
	for i := 0; i < m; i++ {
		idx, _ := col(i)
		b := len(idx)
		if b > maxBucket {
			b = maxBucket
		}
		f.colPos[buckets[b]] = int32(i)
		buckets[b]++
	}
	f.nnzBuf = buckets

	for t := 0; t < m; t++ {
		pos := f.colPos[t]
		idx, val := col(int(pos))
		if !f.eliminate(t, idx, val) {
			return false
		}
		f.posCol[pos] = int32(t)
	}
	return true
}

// eliminate performs one Gilbert–Peierls step: sparse-solve
// x = L⁻¹·(column), pick a partial pivot among unpivoted rows, and append
// the resulting L column and U column.
func (f *basisFactor) eliminate(t int, idx []int32, val []float64) bool {
	m := f.m
	f.stamp++
	stamp := f.stamp
	ordTop := m // f.order[ordTop:] is the reverse-postorder pattern

	// DFS from every nonzero row of the column through the L graph: an
	// edge leads from a pivoted row to the rows of its L column.
	for _, seed := range idx {
		if f.visited[seed] == stamp {
			continue
		}
		sp := 0
		f.stackR[0] = seed
		f.stackC[0] = 0
		f.visited[seed] = stamp
		for sp >= 0 {
			r := f.stackR[sp]
			p := f.rowPos[r]
			advanced := false
			if p >= 0 {
				for c := f.stackC[sp]; c < f.lStart[p+1]-f.lStart[p]; c++ {
					child := f.lRow[f.lStart[p]+c]
					if f.visited[child] != stamp {
						f.visited[child] = stamp
						f.stackC[sp] = c + 1
						sp++
						f.stackR[sp] = child
						f.stackC[sp] = 0
						advanced = true
						break
					}
				}
			}
			if advanced {
				continue
			}
			ordTop--
			f.order[ordTop] = r
			sp--
		}
	}

	// Numeric phase over the topological order.
	for k, r := range idx {
		f.x[r] = val[k]
	}
	for k := ordTop; k < m; k++ {
		r := f.order[k]
		p := f.rowPos[r]
		if p < 0 {
			continue
		}
		v := f.x[r]
		if numeric.IsZero(v) {
			continue
		}
		for q := f.lStart[p]; q < f.lStart[p+1]; q++ {
			f.x[f.lRow[q]] -= f.lVal[q] * v
		}
	}

	// Partial pivot among unpivoted rows of the pattern.
	pivRow, pivAbs := int32(-1), factorPivotTol
	for k := ordTop; k < m; k++ {
		r := f.order[k]
		if f.rowPos[r] >= 0 {
			continue
		}
		if a := math.Abs(f.x[r]); a > pivAbs {
			pivRow, pivAbs = r, a
		}
	}
	if pivRow < 0 {
		for k := ordTop; k < m; k++ {
			f.x[f.order[k]] = 0
		}
		return false
	}
	d := f.x[pivRow]

	// Emit U (entries on already-pivoted rows) and L (on later rows).
	for k := ordTop; k < m; k++ {
		r := f.order[k]
		v := f.x[r]
		f.x[r] = 0
		if numeric.IsZero(v) {
			continue
		}
		if p := f.rowPos[r]; p >= 0 {
			f.uPos = append(f.uPos, p)
			f.uVal = append(f.uVal, v)
		} else if r != pivRow {
			f.lRow = append(f.lRow, r)
			f.lVal = append(f.lVal, v/d)
		}
	}
	f.uDiag = append(f.uDiag, d)
	f.uStart = append(f.uStart, int32(len(f.uPos)))
	f.lStart = append(f.lStart, int32(len(f.lRow)))
	f.pivRow = append(f.pivRow, pivRow)
	f.rowPos[pivRow] = int32(t)
	return true
}

// ftran solves B·w = a for a sparse right-hand side in row space. The
// result is written densely into w (basis-position space, length m);
// scratch must be a zeroed length-m row-space buffer and is returned
// zeroed again.
func (f *basisFactor) ftran(idx []int32, val []float64, w, scratch []float64) {
	x := scratch
	for k, r := range idx {
		x[r] = val[k]
	}
	f.solveScattered(x, w)
}

// ftranDense solves B·w = b for a dense row-space right-hand side b;
// scratch obeys the same zeroed-in/zeroed-out contract as in ftran.
func (f *basisFactor) ftranDense(b, w, scratch []float64) {
	copy(scratch[:f.m], b[:f.m])
	f.solveScattered(scratch, w)
}

// solveScattered is the FTRAN body: x holds the right-hand side scattered
// in row space and is returned zeroed; w receives the dense solution in
// basis-position space.
func (f *basisFactor) solveScattered(x, w []float64) {
	m := f.m
	// L solve in pivot order; x stays in row space.
	for p := 0; p < m; p++ {
		v := x[f.pivRow[p]]
		if numeric.IsZero(v) {
			continue
		}
		for q := f.lStart[p]; q < f.lStart[p+1]; q++ {
			x[f.lRow[q]] -= f.lVal[q] * v
		}
	}
	// Gather into factor-column space and back-substitute U in place.
	for t := 0; t < m; t++ {
		w[t] = x[f.pivRow[t]]
		x[f.pivRow[t]] = 0
	}
	for t := m - 1; t >= 0; t-- {
		v := w[t]
		if numeric.IsZero(v) {
			w[t] = 0
			continue
		}
		v /= f.uDiag[t]
		w[t] = v
		for q := f.uStart[t]; q < f.uStart[t+1]; q++ {
			w[f.uPos[q]] -= f.uVal[q] * v
		}
	}
	// Permute factor columns back to basis positions, reusing x (now
	// zeroed) as the staging buffer.
	for t := 0; t < m; t++ {
		x[f.colPos[t]] = w[t]
	}
	copy(w, x[:m])
	for i := 0; i < m; i++ {
		x[i] = 0
	}
	// Eta file, oldest first: w ← E_e⁻¹ w.
	f.applyEtas(w)
}

// applyEtas applies the eta-file inverses to a basis-position vector,
// oldest eta first — the FTRAN tail shared by warm and incremental solves.
func (f *basisFactor) applyEtas(w []float64) {
	for e := 0; e < len(f.etaR); e++ {
		r := f.etaR[e]
		t := w[r] / f.etaPiv[e]
		if !numeric.IsZero(t) {
			for q := f.etaStart[e]; q < f.etaStart[e+1]; q++ {
				w[f.etaIdx[q]] -= f.etaVal[q] * t
			}
		}
		w[r] = t
	}
}

// btran solves Bᵀ·y = c. c is dense in basis-position space (length m) and
// is consumed as scratch; y (length m, row space) receives the result.
func (f *basisFactor) btran(c, y []float64) {
	m := f.m
	// Eta transposes, newest first: c ← E_eᵀ⁻¹ c.
	for e := len(f.etaR) - 1; e >= 0; e-- {
		r := f.etaR[e]
		s := c[r]
		for q := f.etaStart[e]; q < f.etaStart[e+1]; q++ {
			s -= f.etaVal[q] * c[f.etaIdx[q]]
		}
		c[r] = s / f.etaPiv[e]
	}
	// Permute basis positions to factor columns via y as staging.
	for t := 0; t < m; t++ {
		y[t] = c[f.colPos[t]]
	}
	copy(c[:m], y[:m])
	// Uᵀ forward solve in place (factor-column space).
	for t := 0; t < m; t++ {
		s := c[t]
		for q := f.uStart[t]; q < f.uStart[t+1]; q++ {
			s -= f.uVal[q] * c[f.uPos[q]]
		}
		c[t] = s / f.uDiag[t]
	}
	// Lᵀ backward solve in place (pivot-order space).
	for p := m - 1; p >= 0; p-- {
		s := c[p]
		for q := f.lStart[p]; q < f.lStart[p+1]; q++ {
			s -= f.lVal[q] * c[f.rowPos[f.lRow[q]]]
		}
		c[p] = s
	}
	// Scatter to row space.
	for p := 0; p < m; p++ {
		y[f.pivRow[p]] = c[p]
	}
}

// btranUnit solves Bᵀ·ρ = e_r — the dual simplex pivot row for basis
// position r — in time proportional to what the sparsity of e_r reaches
// rather than to m plus the whole factor. The eta transposes and the Uᵀ/Lᵀ
// dot products are exactly btran's, evaluated in btran's order; they are
// only skipped for factor columns no nonzero can reach, whose btran value
// is a (signed) zero. The result therefore matches btran(e_r) bit for bit
// up to the sign of zero entries.
//
// rho (row space, length m) receives ρ; rows (one bit per row) receives
// the rows where ρ is nonzero. Both are overwritten.
func (f *basisFactor) btranUnit(r int, rho []float64, rows []uint64) {
	m := f.m
	if !f.tValid {
		f.transpose()
	}
	clear(rho[:m])
	clear(rows)

	// Eta transposes, newest first. Only r and the eta pivot positions can
	// hold a nonzero afterwards.
	c := f.cPos
	c[r] = 1
	for e := len(f.etaR) - 1; e >= 0; e-- {
		re := f.etaR[e]
		s := c[re]
		for q := f.etaStart[e]; q < f.etaStart[e+1]; q++ {
			s -= f.etaVal[q] * c[f.etaIdx[q]]
		}
		c[re] = s / f.etaPiv[e]
	}

	// Move those candidates to factor-column space and seed the reach.
	cf, reach := f.cFac, f.reach
	f.seedReach(int32(r))
	for _, i := range f.etaR {
		f.seedReach(i)
	}

	// Uᵀ forward solve over the reach, ascending: a nonzero at t reaches
	// every later column whose U has an entry at t.
	for wi := range reach {
		for word := reach[wi]; word != 0; {
			b := bits.TrailingZeros64(word)
			t := wi<<6 | b
			s := cf[t]
			for q := f.uStart[t]; q < f.uStart[t+1]; q++ {
				s -= f.uVal[q] * cf[f.uPos[q]]
			}
			s /= f.uDiag[t]
			cf[t] = s
			if s != 0 { //lint:allow floateq — exact sparsity test: only a true zero stops the reach
				for q := f.uTStart[t]; q < f.uTStart[t+1]; q++ {
					u := f.uTCol[q]
					reach[u>>6] |= 1 << (u & 63)
				}
			}
			word = reach[wi] &^ (uint64(1)<<(b+1) - 1)
		}
	}

	// Lᵀ backward solve over the reach, descending: a nonzero at p reaches
	// every earlier pivot whose L column has an entry on p's row.
	for wi := len(reach) - 1; wi >= 0; wi-- {
		for word := reach[wi]; word != 0; {
			b := 63 - bits.LeadingZeros64(word)
			p := wi<<6 | b
			s := cf[p]
			for q := f.lStart[p]; q < f.lStart[p+1]; q++ {
				s -= f.lVal[q] * cf[f.rowPos[f.lRow[q]]]
			}
			cf[p] = s
			if s != 0 { //lint:allow floateq — exact sparsity test: only a true zero stops the reach
				for q := f.lTStart[p]; q < f.lTStart[p+1]; q++ {
					l := f.lTCol[q]
					reach[l>>6] |= 1 << (l & 63)
				}
			}
			word = reach[wi] & (uint64(1)<<b - 1)
		}
	}

	// Scatter the nonzeros to row space, restoring the zeroed scratch.
	for wi, word := range reach {
		for ; word != 0; word &= word - 1 {
			p := wi<<6 | bits.TrailingZeros64(word)
			if v := cf[p]; v != 0 { //lint:allow floateq — exact sparsity test: ρ's pattern is its true nonzeros
				row := f.pivRow[p]
				rho[row] = v
				rows[row>>6] |= 1 << (row & 63)
			}
			cf[p] = 0
		}
		reach[wi] = 0
	}
}

// seedReach moves the unit BTRAN's post-eta value at basis position i to
// factor-column space, marking it reached when nonzero, and zeroes it.
func (f *basisFactor) seedReach(i int32) {
	if v := f.cPos[i]; v != 0 { //lint:allow floateq — exact sparsity test: only a true zero stays unreached
		t := f.posCol[i]
		f.cFac[t] = v
		f.reach[t>>6] |= 1 << (t & 63)
	}
	f.cPos[i] = 0
}

// transpose builds the transposed U and L adjacency and sizes the scratch
// the unit BTRAN walks; it runs at most once per factorization.
func (f *basisFactor) transpose() {
	m := f.m
	f.uTStart = growI32(f.uTStart, m+1)
	f.lTStart = growI32(f.lTStart, m+1)
	clear(f.uTStart)
	clear(f.lTStart)
	for _, p := range f.uPos {
		f.uTStart[p+1]++
	}
	for _, r := range f.lRow {
		f.lTStart[f.rowPos[r]+1]++
	}
	for i := 0; i < m; i++ {
		f.uTStart[i+1] += f.uTStart[i]
		f.lTStart[i+1] += f.lTStart[i]
	}
	f.uTCol = growI32(f.uTCol, len(f.uPos))
	f.lTCol = growI32(f.lTCol, len(f.lRow))
	// The DFS stacks are idle outside factorize: borrow them as cursors.
	cu, cl := f.stackR, f.stackC
	copy(cu, f.uTStart[:m])
	copy(cl, f.lTStart[:m])
	for t := 0; t < m; t++ {
		for q := f.uStart[t]; q < f.uStart[t+1]; q++ {
			p := f.uPos[q]
			f.uTCol[cu[p]] = int32(t)
			cu[p]++
		}
		for q := f.lStart[t]; q < f.lStart[t+1]; q++ {
			p := f.rowPos[f.lRow[q]]
			f.lTCol[cl[p]] = int32(t)
			cl[p]++
		}
	}
	f.cPos = growF64(f.cPos, m)
	f.cFac = growF64(f.cFac, m)
	f.reach = growU64(f.reach, bitWords(m))
	f.tValid = true
}

// bitWords is the number of 64-bit words in a bitmap over n indices.
func bitWords(n int) int { return (n + 63) >> 6 }

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// update appends one PFI eta for a pivot at basis position r with FTRAN
// direction w. It reports false when the pivot element is numerically too
// small to divide by — the caller must refactorize instead.
func (f *basisFactor) update(w []float64, r int) bool {
	piv := w[r]
	if math.Abs(piv) < factorPivotTol {
		return false
	}
	for i, v := range w {
		if i == r || numeric.IsZero(v) {
			continue
		}
		f.etaIdx = append(f.etaIdx, int32(i))
		f.etaVal = append(f.etaVal, v)
	}
	f.etaStart = append(f.etaStart, int32(len(f.etaIdx)))
	f.etaR = append(f.etaR, int32(r))
	f.etaPiv = append(f.etaPiv, piv)
	return true
}
