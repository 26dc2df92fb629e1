package dense

import (
	"fmt"
	"math"

	"stef/internal/par"
	"stef/internal/tensor"
)

// The dense half of one CPD-ALS mode update (Algorithm 2, lines 3/6/9/12)
// runs as two fused passes over fixed chunkRows-row chunks of the factor:
//
//	pass 1: copy the MTTKRP rows in, solve them against V, clamp (NNCP),
//	        and keep a per-chunk column max (or sum of squares);
//	pass 2: scale each row by the combined column norms and add it to a
//	        per-chunk packed Gram partial.
//
// Chunks are distributed over threads, but every per-chunk partial is
// combined in chunk order, so the result does not depend on the thread
// count. Row solves and scalings keep the exact per-row operation order of
// a one-row substitution and of NormalizeColumnsMaxInto; only the Gram (and
// the iteration-0 sum of squares across chunks) is summed in a different
// order than a single row-by-row pass.

// chunkRows is the number of factor rows UpdateFactor treats as one unit of
// work and one partial. A chunk is 512 KB at rank 32, so the steps within a
// pass re-read it from cache rather than memory; the per-chunk Gram
// partials stay a small fraction of the factor.
const chunkRows = 2048

// Norm selects the column normalisation UpdateFactor applies.
type Norm uint8

const (
	// NormNone leaves the columns unscaled (the Grams of initial factors).
	NormNone Norm = iota
	// Norm2 scales each column to unit 2-norm, as NormalizeColumnsInto.
	Norm2
	// NormMax divides each column by its max absolute value when that
	// exceeds 1, as NormalizeColumnsMaxInto.
	NormMax
)

// Update describes one dense factor update.
type Update struct {
	// Src, when non-nil, replaces the factor's rows before the solve (the
	// MTTKRP output). It must have the factor's shape.
	Src *tensor.Matrix
	// Chol, when non-nil, replaces every row b by the solution x of V·x = b.
	Chol *Cholesky
	// NonNegative clamps negative entries to zero after the solve.
	NonNegative bool
	// Norm selects the column normalisation.
	Norm Norm
}

// UpdateScratch holds the per-chunk partials of UpdateFactor for factors of
// up to maxRows rows at one rank, and the thread count the update uses. A
// scratch serves one update at a time.
type UpdateScratch struct {
	r, threads int
	tri        int       // r(r+1)/2, the packed upper-triangle size
	gram       []float64 // per-chunk packed Gram partials, tri each
	cols       []float64 // per-chunk column max or sum of squares, r each
}

// NewUpdateScratch sizes the partials of UpdateFactor for factors of up to
// maxRows rows and rank r, updated by threads workers (< 1 means 1).
func NewUpdateScratch(maxRows, r, threads int) *UpdateScratch {
	if maxRows < 0 || r < 0 {
		panic(fmt.Sprintf("dense: NewUpdateScratch(maxRows=%d, r=%d)", maxRows, r))
	}
	chunks := (maxRows + chunkRows - 1) / chunkRows
	tri := r * (r + 1) / 2
	return &UpdateScratch{
		r:       r,
		threads: max(threads, 1),
		tri:     tri,
		gram:    make([]float64, chunks*tri),
		cols:    make([]float64, chunks*r),
	}
}

// UpdateFactor applies u to the factor a in place and leaves aᵀa in gram:
// a's rows are replaced by u.Src's, solved against u.Chol, clamped when
// u.NonNegative, and their columns scaled as u.Norm selects, with the scale
// factors written to norms (which may be nil under NormNone). The result is
// the same for every thread count of s: factors and norms equal those of
// CopyFrom, SolveRowsInPlace and NormalizeColumnsMaxInto bit for bit, and
// under Norm2 and for the Gram they differ from the row-by-row sequence
// only by summation order.
func UpdateFactor(s *UpdateScratch, a *tensor.Matrix, u Update, norms []float64, gram *tensor.Matrix) {
	r := a.Cols
	chunks := (a.Rows + chunkRows - 1) / chunkRows
	switch {
	case r != s.r || chunks*s.tri > len(s.gram):
		panic(fmt.Sprintf("dense: UpdateFactor on %dx%d factor, scratch sized for rank %d and %d chunks", a.Rows, r, s.r, len(s.cols)/max(s.r, 1)))
	case u.Src != nil && (u.Src.Rows != a.Rows || u.Src.Cols != r):
		panic(fmt.Sprintf("dense: UpdateFactor source %dx%d, want %dx%d", u.Src.Rows, u.Src.Cols, a.Rows, r))
	case u.Chol != nil && u.Chol.n != r:
		panic(fmt.Sprintf("dense: UpdateFactor Cholesky of order %d, want %d", u.Chol.n, r))
	case gram.Rows != r || gram.Cols != r:
		panic(fmt.Sprintf("dense: UpdateFactor Gram shape %dx%d, want %dx%d", gram.Rows, gram.Cols, r, r))
	case u.Norm != NormNone && len(norms) != r:
		panic(fmt.Sprintf("dense: UpdateFactor norms length %d, want %d", len(norms), r))
	}
	if u.Src != nil || u.Chol != nil || u.NonNegative || u.Norm != NormNone {
		if s.threads == 1 {
			s.solveChunks(a, u, 0, chunks)
		} else {
			s.solveParallel(a, u, chunks)
		}
		s.combineNorms(u.Norm, norms, chunks)
	}
	if u.Norm == NormNone {
		norms = nil
	}
	if s.threads == 1 {
		s.gramChunks(a, norms, 0, chunks)
	} else {
		s.gramParallel(a, norms, chunks)
	}
	tri := gram.Data[:s.tri]
	clear(tri)
	for c := 0; c < chunks; c++ {
		part := s.gram[c*s.tri:][:len(tri)]
		for k := range tri {
			tri[k] += part[k]
		}
	}
	expandUpper(gram)
}

// solveParallel runs pass 1 over contiguous blocks of chunks, one per
// thread. It is split from UpdateFactor so that the single-threaded path
// creates no closure.
func (s *UpdateScratch) solveParallel(a *tensor.Matrix, u Update, chunks int) {
	//gate:allow escape thread launch, once per mode update and only when T > 1
	par.Blocks(chunks, s.threads, func(_, lo, hi int) { s.solveChunks(a, u, lo, hi) })
}

// gramParallel runs pass 2 over contiguous blocks of chunks, one per
// thread; see solveParallel.
func (s *UpdateScratch) gramParallel(a *tensor.Matrix, norms []float64, chunks int) {
	//gate:allow escape thread launch, once per mode update and only when T > 1
	par.Blocks(chunks, s.threads, func(_, lo, hi int) { s.gramChunks(a, norms, lo, hi) })
}

// solveChunks is pass 1 over chunks [c0, c1): copy in, solve, clamp, and
// the chunk's column statistic for u.Norm.
func (s *UpdateScratch) solveChunks(a *tensor.Matrix, u Update, c0, c1 int) {
	r := s.r
	for c := c0; c < c1; c++ {
		lo, hi := c*chunkRows*r, min((c+1)*chunkRows, a.Rows)*r
		rows := a.Data[lo:hi] //gate:allow bounds one chunk slice per chunkRows rows
		if u.Src != nil {
			copy(rows, u.Src.Data[lo:hi]) //gate:allow bounds one chunk slice per chunkRows rows
		}
		if u.Chol != nil {
			u.Chol.solveRows(rows)
		}
		if u.NonNegative {
			for i, v := range rows {
				if v < 0 {
					rows[i] = 0
				}
			}
		}
		stat := s.cols[c*r : (c+1)*r] //gate:allow bounds one partial slot per chunkRows rows
		switch u.Norm {
		case Norm2:
			sumSquares(stat, rows)
		case NormMax:
			maxAbs(stat, rows)
		}
	}
}

// gramChunks is pass 2 over chunks [c0, c1): divide every row by norms
// (unless nil) and accumulate the chunk's packed Gram partial.
func (s *UpdateScratch) gramChunks(a *tensor.Matrix, norms []float64, c0, c1 int) {
	r := s.r
	for c := c0; c < c1; c++ {
		rows := a.Data[c*chunkRows*r : min((c+1)*chunkRows, a.Rows)*r] //gate:allow bounds one chunk slice per chunkRows rows
		if norms != nil {
			divideColumns(rows, norms)
		}
		part := s.gram[c*s.tri : (c+1)*s.tri] //gate:allow bounds one partial slot per chunkRows rows
		clear(part)
		gramRows(part, rows, r)
	}
}

// combineNorms folds the per-chunk column statistics, in chunk order, into
// the scale factors of norm.
func (s *UpdateScratch) combineNorms(norm Norm, norms []float64, chunks int) {
	if norm == NormNone {
		return
	}
	r := s.r
	clear(norms)
	for c := 0; c < chunks; c++ {
		stat := s.cols[c*r:][:len(norms)]
		for j, v := range stat {
			if norm == Norm2 {
				norms[j] += v
			} else if v > norms[j] {
				norms[j] = v
			}
		}
	}
	finishNorms(norm, norms)
}

// finishNorms turns column statistics into scale factors: under Norm2 the
// square root of the sum of squares, with 1 for a zero column; under
// NormMax the max, raised to 1 so that columns are never scaled up.
func finishNorms(norm Norm, norms []float64) {
	for j, v := range norms {
		if norm == Norm2 {
			if v = math.Sqrt(v); v == 0 {
				v = 1
			}
		} else if v < 1 {
			v = 1
		}
		norms[j] = v
	}
}

// sumSquares sets stat to the column sums of squares of the len(stat)-wide
// rows, summed in row order.
func sumSquares(stat, rows []float64) {
	r := len(stat)
	clear(stat)
	for r > 0 && len(rows) >= r {
		row := rows[:r:r]
		rows = rows[r:]
		for j, v := range row {
			stat[j] += v * v
		}
	}
}

// maxAbs sets stat to the column max absolute values of the len(stat)-wide
// rows, starting from 0 (NaNs never win a comparison).
func maxAbs(stat, rows []float64) {
	r := len(stat)
	clear(stat)
	for r > 0 && len(rows) >= r {
		row := rows[:r:r]
		rows = rows[r:]
		for j, v := range row {
			if av := math.Abs(v); av > stat[j] {
				stat[j] = av
			}
		}
	}
}

// divideColumns divides every len(norms)-wide row of rows by norms.
func divideColumns(rows, norms []float64) {
	r := len(norms)
	for r > 0 && len(rows) >= r {
		row := rows[:r:r]
		rows = rows[r:]
		for j := range row {
			row[j] /= norms[j]
		}
	}
}

// gramRows adds the outer products of the r-wide rows of data to the packed
// upper triangle g, four rows per pass through g.
func gramRows(g, data []float64, r int) {
	if r == 0 {
		return
	}
	for len(data) >= 4*r {
		gramRows4(g, data[:r], data[r:2*r], data[2*r:3*r], data[3*r:4*r]) //gate:allow bounds row-group slices, four per four rows against the O(R²) Gram update of each
		data = data[4*r:]
	}
	for len(data) >= r {
		gramRow1(g, data[:r]) //gate:allow bounds tail rows, at most three per call
		data = data[r:]
	}
}

// solveRows4 overwrites each of the four n-wide rows b with the solution x
// of L·Lᵀ·x = b, given L and u = Lᵀ in row-major full storage. One pass
// through each triangle serves all four rows, so the core has four
// independent dependency chains where a single row has one, while each
// row's own operations run in exactly the order of a one-row forward and
// back substitution. Rows may alias (callers pad a short group by
// repeating a row): a row's result depends only on its own entries, so a
// repeated row computes and stores the same values twice.
func solveRows4(n int, l, u, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:n:n], b1[:n:n], b2[:n:n], b3[:n:n]
	// Forward substitution L·y = b.
	for i := 0; i < n; i++ {
		li := l[i*n:][:n:n] //gate:allow bounds one L-row slice per row of the triangle, O(n) against the O(n²) inner loop
		x0, x1, x2, x3 := b0[:i], b1[:i], b2[:i], b3[:i]
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k, lk := range li[:i] {
			s0 -= lk * x0[k]
			s1 -= lk * x1[k]
			s2 -= lk * x2[k]
			s3 -= lk * x3[k]
		}
		d := li[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		ui := u[i*n:][:n:n] //gate:allow bounds one Lᵀ-row slice per row of the triangle, O(n) against the O(n²) inner loop
		s0, s1, s2, s3 := b0[i], b1[i], b2[i], b3[i]
		for k := i + 1; k < n; k++ {
			uk := ui[k]
			s0 -= uk * b0[k]
			s1 -= uk * b1[k]
			s2 -= uk * b2[k]
			s3 -= uk * b3[k]
		}
		d := ui[i]
		b0[i], b1[i], b2[i], b3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// gramRows4 adds the outer products of four r-wide rows to the packed
// upper triangle g (row p holds columns p..r-1, rows stored back to back).
// Row p is addressed through a window starting p entries before it, so
// that column q sits at index q, as in the input rows.
func gramRows4(g, a0, a1, a2, a3 []float64) {
	r := len(a0)
	a1, a2, a3 = a1[:r:r], a2[:r:r], a3[:r:r]
	off := 0
	for p := 0; p < r; p++ {
		v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
		gp := g[off:][:r] //gate:allow bounds one triangle-row window per column, O(r) against the O(r²) inner loop
		for q := p; q < r; q++ {
			gp[q] += v0*a0[q] + v1*a1[q] + v2*a2[q] + v3*a3[q]
		}
		off += r - p - 1
	}
}

// gramRow1 adds the outer product of one row to the packed upper triangle
// g, addressed as in gramRows4; it finishes the fewer-than-four rows
// gramRows4 leaves over.
func gramRow1(g, a []float64) {
	r := len(a)
	off := 0
	for p, v := range a {
		gp := g[off:][:r] //gate:allow bounds one triangle-row window per column, O(r) against the O(r) inner loop
		for q := p; q < r; q++ {
			gp[q] += v * a[q]
		}
		off += r - p - 1
	}
}
