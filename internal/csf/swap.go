package csf

import (
	"stef/internal/par"
)

// CountSwappedFibers implements Algorithm 9 of the paper: it computes the
// number of level-(d-2) fibers the CSF would have if its last two modes
// were swapped, without building the swapped tree. That count is the only
// quantity the data-movement model needs that the existing CSF does not
// already contain (levels 0..d-3 are unchanged by the swap).
//
// A fiber in the swapped order is a distinct (prefix, leaf-index) pair,
// where prefix is the path through levels 0..d-3. The pass runs with t
// threads, each owning a contiguous block of level-(d-3) nodes; since a
// pair's prefix node is owned by exactly one thread, no pair is counted
// twice. Each thread keeps an observed[last-mode-length] stamp array, as in
// the paper's pseudocode, trading memory for a single O(nnz) scan.
func (tr *Tree) CountSwappedFibers(t int) int64 {
	d := tr.Order()
	if d < 3 {
		panic("csf: CountSwappedFibers needs order >= 3")
	}
	gLevel := d - 3 // grandparents of leaves
	numG := len(tr.fids[gLevel])
	counts := make([]int64, max(t, 1))
	par.Blocks(numG, t, func(th, lo, hi int) {
		observed := make([]int64, tr.dims[d-1])
		for i := range observed {
			observed[i] = -1
		}
		var c int64
		for g := lo; g < hi; g++ {
			for p := tr.ptr[gLevel][g]; p < tr.ptr[gLevel][g+1]; p++ {
				for k := tr.ptr[d-2][p]; k < tr.ptr[d-2][p+1]; k++ {
					leaf := tr.fids[d-1][k]
					if observed[leaf] != int64(g) {
						observed[leaf] = int64(g)
						c++
					}
				}
			}
		}
		counts[th] = c
	})
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	return total
}

// SwappedFiberCounts returns the per-level fiber counts the tree would have
// under the swapped last-two-mode order: identical to FiberCounts for
// levels 0..d-3, CountSwappedFibers at level d-2, and nnz at the leaf.
func (tr *Tree) SwappedFiberCounts(t int) []int64 {
	d := tr.Order()
	c := tr.FiberCounts()
	c[d-2] = tr.CountSwappedFibers(t)
	return c
}
