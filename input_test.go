package stef_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"stef"
	"stef/internal/csf"
	"stef/internal/tensor"
)

var allEngines = []string{"stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"}

// TestDecomposeRejectsZeroNorm pins that a tensor with no signal — no
// non-zeros, or only explicit zeros — is an error on every engine instead
// of a fit of 1 reported as converged.
func TestDecomposeRejectsZeroNorm(t *testing.T) {
	empty := tensor.New([]int{4, 5, 6}, 0)
	zeros := tensor.New([]int{4, 5, 6}, 3)
	for k := int32(0); k < 3; k++ {
		zeros.Append([]int32{k, k + 1, k + 2}, 0)
	}
	for _, tt := range []*tensor.Tensor{empty, zeros} {
		for _, name := range allEngines {
			res, err := stef.Decompose(tt, stef.Options{Rank: 2, MaxIters: 3, Engine: name})
			if err == nil {
				t.Fatalf("engine %q, %d non-zeros of value 0: fit %g, want an error", name, tt.NNZ(), res.FinalFit())
			}
		}
	}
}

// TestCompileRejectsNonFinite pins that NaN and ±Inf values fail at
// Compile and CompileTree with an error naming the value's coordinate,
// rather than as a Cholesky failure in the first iteration.
func TestCompileRejectsNonFinite(t *testing.T) {
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tt := tensor.Random([]int{9, 11, 13}, 300, nil, int64(i+1))
		k := 37 * (i + 1)
		tt.Vals[k] = bad
		coord := fmt.Sprint(tt.Coord(k))
		if _, err := stef.Compile(tt, stef.Options{Rank: 3}); err == nil || !strings.Contains(err.Error(), coord) {
			t.Fatalf("Compile with %g at %s: err = %v, want one naming the coordinate", bad, coord, err)
		}
		tree := csf.Build(tt, nil)
		if _, err := stef.CompileTree(tree, stef.Options{Rank: 3}); err == nil || !strings.Contains(err.Error(), coord) {
			t.Fatalf("CompileTree with %g at %s: err = %v, want one naming the coordinate", bad, coord, err)
		}
	}
}

// TestDenseUpdateThreadsBitIdentical pins that Options.Threads, which now
// also parallelises the dense factor update, leaves a solve bit-identical
// on an engine whose MTTKRP does not depend on the thread count: the
// naive engine on a tensor whose longest mode spans several update chunks.
func TestDenseUpdateThreadsBitIdentical(t *testing.T) {
	tt := tensor.Random([]int{5000, 40, 30}, 4000, nil, 6)
	var first *stef.Result
	for _, threads := range []int{1, 2, 3} {
		res, err := stef.Decompose(tt, stef.Options{Rank: 5, MaxIters: 4, Tol: -1, Engine: "naive", Threads: threads, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for i, f := range res.Fits {
			if f != first.Fits[i] {
				t.Fatalf("T=%d: fit %d = %v, T=1 gave %v", threads, i, f, first.Fits[i])
			}
		}
		for j, l := range res.Lambda {
			if l != first.Lambda[j] {
				t.Fatalf("T=%d: lambda %d = %v, T=1 gave %v", threads, j, l, first.Lambda[j])
			}
		}
		for m, f := range res.Factors {
			for i, v := range f.Data {
				if v != first.Factors[m].Data[i] {
					t.Fatalf("T=%d: factor %d entry %d = %v, T=1 gave %v", threads, m, i, v, first.Factors[m].Data[i])
				}
			}
		}
	}
}
