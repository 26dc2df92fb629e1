// Package model implements STeF's sparsity-aware data-movement model
// (Section IV of the paper) and the exhaustive configuration search over
// memoization subsets and the last-two-mode swap.
//
// The model works in units of matrix/tensor elements (8-byte float64 or
// index words): for each of the d MTTKRP operations in one CPD iteration it
// estimates the volume of reads and writes to memory, given the per-level
// fiber counts of the CSF, the mode lengths, the rank R and a cache
// capacity. Factor-matrix traffic uses the paper's DM_factor rule: a factor
// that fits in cache is read at most once (cold misses only); one that does
// not is read on every access without reuse.
//
// The paper's Section IV formulas are reproduced with one clarification:
// the memoized read cost charges the partial-result read m_k·R at the
// source level k once per consuming MTTKRP (the printed formula folds the
// m_i·R term into the level sum; charging it at the source level is the
// coherent reading and matches the paper's worked uber/vast numbers in
// spirit — what matters to the search is that memoization trades m_k·R
// reads plus a one-time m_k·R write against re-traversing every level
// below k).
package model

import (
	"fmt"
)

// DefaultCacheBytes is the assumed last-level cache capacity. The
// benchmark tensors in this reproduction are scaled ~40x down from the
// paper's, so the default cache is scaled similarly from the ~25 MB LLC of
// the paper's Intel machine.
const DefaultCacheBytes = 2 << 20

// Params carries everything the model needs about one CSF layout.
type Params struct {
	// R is the decomposition rank.
	R int
	// CacheElems is the cache capacity in 8-byte elements.
	CacheElems int64
	// Dims[l] is the mode length at CSF level l.
	Dims []int
	// Fibers[l] is the fiber (node) count at CSF level l; Fibers[d-1]
	// is the non-zero count.
	Fibers []int64

	// T and Accum arm the accumulation-cost extension (see AttachAccum in
	// accum.go); zero values leave the base Section IV model unchanged.
	T     int
	Accum []RowStats

	// Memoized per-level strategy resolution; nil until AttachAccum.
	accumStrat []AccumStrategy
	accumCost  []Cost
}

// ParamsForCache builds Params from level dims and fiber counts with a
// cache size in bytes (<= 0 selects DefaultCacheBytes).
func ParamsForCache(dims []int, fibers []int64, r int, cacheBytes int64) Params {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	return Params{R: r, CacheElems: cacheBytes / 8, Dims: dims, Fibers: fibers}
}

// Cost is a data-movement estimate in elements.
type Cost struct {
	Reads  int64
	Writes int64
}

// Total returns reads plus writes.
func (c Cost) Total() int64 { return c.Reads + c.Writes }

// Add returns the elementwise sum.
func (c Cost) Add(o Cost) Cost { return Cost{c.Reads + o.Reads, c.Writes + o.Writes} }

func (c Cost) String() string {
	return fmt.Sprintf("reads=%d writes=%d", c.Reads, c.Writes)
}

// dmFactor implements DM_factor_i(x): the traffic for x row accesses to the
// level-l factor matrix (N_l × R).
func (p Params) dmFactor(l int, x int64) int64 {
	foot := int64(p.Dims[l]) * int64(p.R)
	vol := x * int64(p.R)
	if foot > p.CacheElems {
		return vol
	}
	if foot < vol {
		return foot
	}
	return vol
}

// SourceLevel returns the level mode u reads from under save: the smallest
// saved level >= u, or d-1. Planners use it to parameterise the write
// census with the same source the kernels will read.
func SourceLevel(save []bool, u int) int { return sourceLevel(save, u) }

// sourceLevel returns the level mode u reads from under save: the smallest
// saved level >= u, or d-1.
func sourceLevel(save []bool, u int) int {
	d := len(save)
	if u >= d-1 {
		return d - 1
	}
	for l := u; l <= d-2; l++ {
		if save[l] {
			return l
		}
	}
	return d - 1
}

// ModeCost estimates the data movement of the MTTKRP for CSF level u under
// the memoization vector save (save[l] true means P^(l) is stored during
// the mode-0 pass).
func (p Params) ModeCost(save []bool, u int) Cost {
	d := len(p.Dims)
	if len(save) != d {
		panic(fmt.Sprintf("model: save length %d, want %d", len(save), d))
	}
	var c Cost
	if u == 0 {
		// Full downward traversal: index structure and factor rows at
		// every level below the root, plus writes of the output and
		// of every memoized partial result.
		for l := 0; l < d; l++ {
			c.Reads += 2 * p.Fibers[l]
			if l > 0 {
				c.Reads += p.dmFactor(l, p.Fibers[l])
			}
		}
		c.Writes += int64(p.Dims[0]) * int64(p.R)
		for l := 1; l <= d-2; l++ {
			if save[l] {
				c.Writes += p.Fibers[l] * int64(p.R)
			}
		}
		return c
	}
	src := sourceLevel(save, u)
	// Traverse the index structure down to the source level.
	for l := 0; l <= src; l++ {
		c.Reads += 2 * p.Fibers[l]
	}
	// Factor rows: levels 0..u-1 feed the Khatri-Rao row; levels
	// u+1..src feed the upward contraction. Level u's factor is the
	// output, not an input.
	for l := 0; l <= src; l++ {
		if l == u {
			continue
		}
		c.Reads += p.dmFactor(l, p.Fibers[l])
	}
	// Memoized partial rows at the source level (the tensor's values are
	// already counted in the 2*m_{d-1} index/value term when src==d-1).
	if src < d-1 {
		c.Reads += p.Fibers[src] * int64(p.R)
	}
	// Output accumulation: the flat DM_factor write approximation, or —
	// when row-write stats are attached — the resolved strategy's
	// scatter + Reset/Reduce term (see accum.go).
	if p.accumCost != nil && u < len(p.accumCost) {
		c = c.Add(p.accumCost[u])
	} else {
		c.Writes += p.dmFactor(u, p.Fibers[u])
	}
	return c
}

// IterationCost sums ModeCost over every mode of one CPD iteration.
func (p Params) IterationCost(save []bool) Cost {
	var c Cost
	for u := 0; u < len(p.Dims); u++ {
		c = c.Add(p.ModeCost(save, u))
	}
	return c
}

// OpCount estimates the floating-point multiply-add count of one CPD
// iteration under save, ignoring data movement. This is the AdaTM-style
// objective used as a baseline decision rule: it always favours memoization
// that removes recomputation, even when the extra traffic is not worth it.
func (p Params) OpCount(save []bool) int64 {
	d := len(p.Dims)
	var ops int64
	// Mode 0: one Hadamard/scale per node per level.
	for l := 1; l < d; l++ {
		ops += p.Fibers[l] * int64(p.R)
	}
	for u := 1; u < d; u++ {
		src := sourceLevel(save, u)
		for l := 1; l <= src; l++ {
			ops += p.Fibers[l] * int64(p.R)
		}
	}
	return ops
}

// MemoBytes returns the storage cost in bytes of the partial results
// selected by save (Table II's numerator).
func (p Params) MemoBytes(save []bool) int64 {
	var b int64
	for l := 1; l <= len(p.Dims)-2; l++ {
		if save[l] {
			b += p.Fibers[l] * int64(p.R) * 8
		}
	}
	return b
}
