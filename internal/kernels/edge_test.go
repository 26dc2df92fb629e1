package kernels

import (
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// TestDegenerateTensors drives the whole kernel stack over edge-case
// inputs: empty tensors, a single non-zero, singleton dimensions, and one
// giant fiber — all with more threads than work.
func TestDegenerateTensors(t *testing.T) {
	cases := []struct {
		name string
		make func() *tensor.Tensor
	}{
		{"empty", func() *tensor.Tensor { return tensor.New([]int{4, 5, 6}, 0) }},
		{"single-nnz", func() *tensor.Tensor {
			tt := tensor.New([]int{4, 5, 6}, 1)
			tt.Append([]int32{3, 4, 5}, 2.5)
			return tt
		}},
		{"all-ones-dims", func() *tensor.Tensor {
			tt := tensor.New([]int{1, 1, 1}, 1)
			tt.Append([]int32{0, 0, 0}, 7)
			return tt
		}},
		{"one-giant-fiber", func() *tensor.Tensor {
			tt := tensor.New([]int{1, 1, 500}, 0)
			for i := int32(0); i < 500; i++ {
				tt.Append([]int32{0, 0, i}, float64(i))
			}
			return tt
		}},
		{"diagonal", func() *tensor.Tensor {
			tt := tensor.New([]int{64, 64, 64}, 0)
			for i := int32(0); i < 64; i++ {
				tt.Append([]int32{i, i, i}, 1)
			}
			return tt
		}},
	}
	const rank = 3
	for _, c := range cases {
		tt := c.make()
		d := tt.Order()
		tree := csf.Build(tt, nil)
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		factors := tensor.RandomFactors(tt.Dims, rank, 1)
		lf := LevelFactors(factors, tree.Perm())
		for _, threads := range []int{1, 7} {
			part := sched.NewPartition(tree, threads)
			if err := part.Validate(tree); err != nil {
				t.Fatalf("%s T=%d: %v", c.name, threads, err)
			}
			for _, save := range memoSubsets(d) {
				partials := NewPartials(tree, rank, save)
				out0 := tensor.NewMatrix(tree.Dim(0), rank)
				RootMTTKRP(tree, lf, out0, partials, part)
				want0 := Reference(tt, factors, tree.Perm()[0])
				if diff := out0.MaxAbsDiff(want0); diff > 1e-9*(1+want0.NormFrobenius()) {
					t.Fatalf("%s T=%d save=%v root: diff %g", c.name, threads, save, diff)
				}
				for u := 1; u < d; u++ {
					buf := NewOutBuf(tree.Dim(u), rank, threads, 0)
					got := tensor.NewMatrix(tree.Dim(u), rank)
					buf.Reset(got)
					ModeMTTKRP(tree, lf, u, partials, buf, part)
					buf.Reduce(got)
					want := Reference(tt, factors, tree.Perm()[u])
					if diff := got.MaxAbsDiff(want); diff > 1e-9*(1+want.NormFrobenius()) {
						t.Fatalf("%s T=%d save=%v mode %d: diff %g", c.name, threads, save, u, diff)
					}
				}
			}
		}
	}
}
