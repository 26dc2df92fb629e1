package main

import (
	"errors"
	"fmt"
	"math"

	"stef/internal/cpd"
	"stef/internal/kernels"
	"stef/internal/par"
	"stef/internal/tensor"
)

// Check tolerances. The solver's fit comes from the Gram/MTTKRP identity
// and the engines sum in CSF order, so both differ from the direct
// recomputations below only by floating-point reassociation (~1e-12 on
// these sizes); any real defect moves them by orders of magnitude more.
const (
	fitTol    = 1e-6 // absolute, on a fit in [0, 1]
	mttkrpTol = 1e-8 // relative to the largest reference entry
)

// checkResult verifies one returned solve against the COO tensor without
// trusting the solver: every factor and weight is finite, the fit
// recomputed as a direct residual over the non-zeros matches FinalFit, and
// eng's MTTKRP of every mode on the final factors matches
// kernels.Reference. eng must be the engine the solve ran on.
func checkResult(t *tensor.Tensor, res *cpd.Result, eng cpd.Engine) error {
	d := t.Order()
	if len(res.Factors) != d || len(res.Lambda) != rank {
		return fmt.Errorf("result has %d factors and %d weights, want %d and %d", len(res.Factors), len(res.Lambda), d, rank)
	}
	for m, f := range res.Factors {
		if f.Rows != t.Dims[m] || f.Cols != rank {
			return fmt.Errorf("factor %d is %dx%d, want %dx%d", m, f.Rows, f.Cols, t.Dims[m], rank)
		}
		if !finite(f.Data) {
			return fmt.Errorf("factor %d has a non-finite entry", m)
		}
	}
	if !finite(res.Lambda) {
		return fmt.Errorf("lambda has a non-finite entry")
	}
	// The engine's MTTKRPs run in update order (later positions may read
	// memoized partials of earlier ones); the direct fit and the reference
	// MTTKRPs are independent and run in parallel.
	order := eng.UpdateOrder()
	outs := make([]*tensor.Matrix, d)
	ws := eng.NewWorkspace()
	for pos, m := range order {
		outs[pos] = tensor.NewMatrix(t.Dims[m], rank)
		eng.Compute(ws, pos, res.Factors, outs[pos])
	}
	errs := make([]error, d+1)
	par.Do(d+1, func(i int) {
		if i == d {
			if fit, got := directFit(t, res.Factors, res.Lambda), res.FinalFit(); !(math.Abs(got-fit) <= fitTol) {
				errs[i] = fmt.Errorf("FinalFit %.12g, direct residual gives %.12g", got, fit)
			}
			return
		}
		m := order[i]
		ref := kernels.Reference(t, res.Factors, m)
		scale := 1.0
		for _, v := range ref.Data {
			scale = math.Max(scale, math.Abs(v))
		}
		if diff := outs[i].MaxAbsDiff(ref); !(diff <= mttkrpTol*scale) {
			errs[i] = fmt.Errorf("mode-%d MTTKRP differs from kernels.Reference by %.3g (scale %.3g)", m, diff, scale)
		}
	})
	return errors.Join(errs...)
}

// directFit is 1 - ||X - M||_F / ||X||_F for the Kruskal model M of
// factors and lambda, with <X, M> summed over the non-zeros of X and
// ||M||² from Gram matrices computed here rather than by the solver (upper
// triangles only; they are symmetric).
func directFit(t *tensor.Tensor, factors []*tensor.Matrix, lambda []float64) float64 {
	d := t.Order()
	var normX2, inner float64
	row := make([]float64, rank)
	for k, v := range t.Vals {
		c := t.Coord(k)
		copy(row, lambda)
		for m := 0; m < d; m++ {
			f := factors[m].Row(int(c[m]))
			for r := range row {
				row[r] *= f[r]
			}
		}
		model := 0.0
		for _, x := range row {
			model += x
		}
		normX2 += v * v
		inner += v * model
	}
	prod := make([]float64, rank*rank)
	for i := range prod {
		prod[i] = 1
	}
	gram := make([]float64, rank*rank)
	for _, f := range factors {
		for i := range gram {
			gram[i] = 0
		}
		for i := 0; i < f.Rows; i++ {
			fr := f.Row(i)
			for p, a := range fr {
				g := gram[p*rank : (p+1)*rank]
				for q := p; q < rank; q++ {
					g[q] += a * fr[q]
				}
			}
		}
		for i, g := range gram {
			prod[i] *= g
		}
	}
	normM2 := 0.0
	for p := 0; p < rank; p++ {
		normM2 += lambda[p] * lambda[p] * prod[p*rank+p]
		for q := p + 1; q < rank; q++ {
			normM2 += 2 * lambda[p] * lambda[q] * prod[p*rank+q]
		}
	}
	return 1 - math.Sqrt(math.Max(0, normX2-2*inner+normM2))/math.Sqrt(normX2)
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
