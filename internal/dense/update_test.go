package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stef/internal/tensor"
)

// refSolveVec is the one-row forward and back substitution, reading Lᵀ
// column-wise out of L: the operation order every row of solveRows4 must
// reproduce exactly.
func refSolveVec(c *Cholesky, b []float64) {
	n, l := c.n, c.l
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * b[k]
		}
		b[i] = sum / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * b[k]
		}
		b[i] = sum / l[i*n+i]
	}
}

// refGram is the row-by-row Gram: one dependent accumulation per entry, in
// row order.
func refGram(a *tensor.Matrix) *tensor.Matrix {
	r := a.Cols
	out := tensor.NewMatrix(r, r)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < r; p++ {
			for q := p; q < r; q++ {
				out.Data[p*r+q] += row[p] * row[q]
			}
		}
	}
	for p := 0; p < r; p++ {
		for q := p + 1; q < r; q++ {
			out.Data[q*r+p] = out.Data[p*r+q]
		}
	}
	return out
}

// refNormalize is the column normalisation in one pass per step: a column
// statistic accumulated over all rows in row order (sum of squares, or max
// absolute value), then each entry divided by the finished norm.
func refNormalize(a *tensor.Matrix, norm Norm, norms []float64) {
	for j := range norms {
		norms[j] = 0
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			if norm == Norm2 {
				norms[j] += v * v
			} else if av := math.Abs(v); av > norms[j] {
				norms[j] = av
			}
		}
	}
	for j := range norms {
		if norm == Norm2 {
			norms[j] = math.Sqrt(norms[j])
			if norms[j] == 0 {
				norms[j] = 1
			}
		} else if norms[j] < 1 {
			norms[j] = 1
		}
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] /= norms[j]
		}
	}
}

// refUpdate is the serial update sequence UpdateFactor replaces: copy,
// row-by-row solve, clamp, normalisation, row-by-row Gram.
func refUpdate(a, src *tensor.Matrix, c *Cholesky, nonNeg bool, norm Norm, norms []float64) *tensor.Matrix {
	a.CopyFrom(src)
	for i := 0; i < a.Rows; i++ {
		refSolveVec(c, a.Row(i))
	}
	if nonNeg {
		for i, v := range a.Data {
			if v < 0 {
				a.Data[i] = 0
			}
		}
	}
	refNormalize(a, norm, norms)
	return refGram(a)
}

// randSPD returns the Cholesky factor of BᵀB + I for a random (r+3)×r B.
func randSPD(t *testing.T, r int, rng *rand.Rand) *Cholesky {
	t.Helper()
	b := tensor.NewMatrix(r+3, r)
	b.Randomize(rng)
	v := refGram(b)
	for p := 0; p < r; p++ {
		v.Data[p*r+p]++
	}
	c, err := NewCholesky(v)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randSigned returns an n×r matrix of standard normal entries, so that the
// solved rows have entries of both signs for the NonNegative clamp.
func randSigned(n, r int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.NewMatrix(n, r)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// gramClose reports the first entry where got differs from want by more
// than tol times the Cauchy–Schwarz scale sqrt(want_pp·want_qq).
func gramClose(got, want *tensor.Matrix, tol float64) error {
	r := want.Cols
	for p := 0; p < r; p++ {
		for q := 0; q < r; q++ {
			scale := math.Sqrt(want.At(p, p) * want.At(q, q))
			if d := math.Abs(got.At(p, q) - want.At(p, q)); d > tol*scale {
				return fmt.Errorf("gram(%d,%d) = %g, want %g (diff %g, scale %g)", p, q, got.At(p, q), want.At(p, q), d, scale)
			}
		}
	}
	return nil
}

// TestUpdateFactorMatchesSerial pins UpdateFactor against the serial update
// sequence across chunk-boundary row counts, ranks and both normalisations:
// factors and norms are bit-identical on the max path and within 1e-14
// relative in iteration 0 (Norm2, whose sum of squares is combined per
// chunk); the Gram is within 1e-12 of its scale. Every thread count
// produces bit-identical factors, norms and Gram.
func TestUpdateFactorMatchesSerial(t *testing.T) {
	ns := []int{0, 1, 3, 4, 5, 2047, 2048, 2049, 3*chunkRows + 7}
	ranks := []int{1, 3, 7, 16, 32, 64}
	threads := []int{1, 2, 3, 8}
	rng := rand.New(rand.NewSource(12))
	for _, r := range ranks {
		chol := randSPD(t, r, rng)
		for _, n := range ns {
			src := randSigned(n, r, rng)
			for _, nonNeg := range []bool{false, true} {
				for _, norm := range []Norm{NormMax, Norm2} {
					name := fmt.Sprintf("n=%d/R=%d/nonneg=%v/norm=%d", n, r, nonNeg, norm)
					want := tensor.NewMatrix(n, r)
					wantNorms := make([]float64, r)
					wantGram := refUpdate(want, src, chol, nonNeg, norm, wantNorms)

					var first *tensor.Matrix
					var firstNorms []float64
					var firstGram *tensor.Matrix
					for _, th := range threads {
						a := tensor.NewMatrix(n, r)
						norms := make([]float64, r)
						gram := tensor.NewMatrix(r, r)
						UpdateFactor(NewUpdateScratch(n, r, th), a, Update{Src: src, Chol: chol, NonNegative: nonNeg, Norm: norm}, norms, gram)
						if first == nil {
							first, firstNorms, firstGram = a, norms, gram
							checkAgainstSerial(t, name, norm, a, want, norms, wantNorms)
							if err := gramClose(gram, wantGram, 1e-12); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							continue
						}
						if i := bitsEqual(a.Data, first.Data); i >= 0 {
							t.Fatalf("%s T=%d: factor entry %d = %v, T=1 gave %v", name, th, i, a.Data[i], first.Data[i])
						}
						if i := bitsEqual(norms, firstNorms); i >= 0 {
							t.Fatalf("%s T=%d: norm %d = %v, T=1 gave %v", name, th, i, norms[i], firstNorms[i])
						}
						if i := bitsEqual(gram.Data, firstGram.Data); i >= 0 {
							t.Fatalf("%s T=%d: Gram entry %d = %v, T=1 gave %v", name, th, i, gram.Data[i], firstGram.Data[i])
						}
					}
				}
			}
		}
	}
}

func checkAgainstSerial(t *testing.T, name string, norm Norm, a, want *tensor.Matrix, norms, wantNorms []float64) {
	t.Helper()
	if norm == NormMax {
		if i := bitsEqual(a.Data, want.Data); i >= 0 {
			t.Fatalf("%s: factor entry %d = %v, serial gave %v", name, i, a.Data[i], want.Data[i])
		}
		if i := bitsEqual(norms, wantNorms); i >= 0 {
			t.Fatalf("%s: norm %d = %v, serial gave %v", name, i, norms[i], wantNorms[i])
		}
		return
	}
	for i, w := range want.Data {
		if d := math.Abs(a.Data[i] - w); d > 1e-14*math.Abs(w) {
			t.Fatalf("%s: factor entry %d = %v, serial gave %v", name, i, a.Data[i], w)
		}
	}
	for j, w := range wantNorms {
		if d := math.Abs(norms[j] - w); d > 1e-14*w {
			t.Fatalf("%s: norm %d = %v, serial gave %v", name, j, norms[j], w)
		}
	}
}

// TestUpdateFactorGramOnly covers the initial-Gram form (no source, no
// solve, no normalisation): the factor is untouched and the Gram matches
// Gram's.
func TestUpdateFactorGramOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 5, 2049} {
		a := randSigned(n, 7, rng)
		before := a.Clone()
		gram := tensor.NewMatrix(7, 7)
		UpdateFactor(NewUpdateScratch(n, 7, 2), a, Update{}, nil, gram)
		if i := bitsEqual(a.Data, before.Data); i >= 0 {
			t.Fatalf("n=%d: factor entry %d changed", n, i)
		}
		if err := gramClose(gram, refGram(a), 1e-12); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestSolveRowsBitIdentical pins SolveVec and SolveRowsInPlace, both built
// on solveRows4, to the one-row substitution bit for bit, including the
// padded last group of 1–3 rows.
func TestSolveRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, r := range []int{1, 2, 5, 16, 33} {
		chol := randSPD(t, r, rng)
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 9} {
			b := randSigned(n, r, rng)
			want := b.Clone()
			for i := 0; i < n; i++ {
				refSolveVec(chol, want.Row(i))
			}
			vec := b.Clone()
			for i := 0; i < n; i++ {
				chol.SolveVec(vec.Row(i))
			}
			chol.SolveRowsInPlace(b)
			if i := bitsEqual(b.Data, want.Data); i >= 0 {
				t.Fatalf("R=%d n=%d: SolveRowsInPlace entry %d = %v, want %v", r, n, i, b.Data[i], want.Data[i])
			}
			if i := bitsEqual(vec.Data, want.Data); i >= 0 {
				t.Fatalf("R=%d n=%d: SolveVec entry %d = %v, want %v", r, n, i, vec.Data[i], want.Data[i])
			}
		}
	}
}

// BenchmarkDenseUpdate times one mode's dense update at the shape of the
// hypersparse benchmark workload's long modes (230K×32), serial sequence
// against UpdateFactor at T=1 and T=2.
func BenchmarkDenseUpdate(b *testing.B) {
	const n, r = 230_000, 32
	rng := rand.New(rand.NewSource(1))
	src := randSigned(n, r, rng)
	a := tensor.NewMatrix(n, r)
	bm := tensor.NewMatrix(r+3, r)
	bm.Randomize(rng)
	v := Gram(bm, nil)
	for p := 0; p < r; p++ {
		v.Data[p*r+p]++
	}
	chol, err := NewCholesky(v)
	if err != nil {
		b.Fatal(err)
	}
	norms := make([]float64, r)
	gram := tensor.NewMatrix(r, r)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.CopyFrom(src)
			for row := 0; row < n; row++ {
				refSolveVec(chol, a.Row(row))
			}
			refNormalize(a, NormMax, norms)
			gram = refGram(a)
		}
	})
	for _, th := range []int{1, 2} {
		s := NewUpdateScratch(n, r, th)
		b.Run(fmt.Sprintf("fused-T%d", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				UpdateFactor(s, a, Update{Src: src, Chol: chol, Norm: NormMax}, norms, gram)
			}
		})
	}
}
