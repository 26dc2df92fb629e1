package kernels

import (
	"fmt"

	"stef/internal/csf"
	"stef/internal/sched"
)

// Census sentinels: a write census holds, per output row, the one thread
// that writes it (>= 0) or one of these.
const (
	// WriterShared marks a row two or more threads write.
	WriterShared int32 = -1
	// WriterNone marks a row no thread writes.
	WriterNone int32 = -2
)

// CountRowWrites runs the write census of the mode-u MTTKRP output read
// from CSF level src under the given partition: an O(fibers) pass that
// walks the same partition-clamped spans as the kernel and returns, per
// output row, its single writing thread, WriterShared or WriterNone. Leaf
// rows come from the per-thread leaf ranges, rows at the source level from
// the owned ranges, and rows above the source level from the touched
// ranges (those kernels emit into every touched node of their clamped
// span, including zero contributions, so single-writer classification must
// count by touch, not ownership). The census is exact for u >= src and a
// per-thread superset for u < src, where the kernel may skip span prefixes
// with no live ancestor: it errs only toward more sharing, never less.
func CountRowWrites(tree *csf.Tree, part *sched.Partition, u, src int) []int32 {
	checkModeSource(tree, u, src)
	d := tree.Order()
	writer := make([]int32, tree.Dim(u))
	for i := range writer {
		writer[i] = WriterNone
	}
	fids := tree.FidLevel(u)
	for th := 0; th < part.T; th++ {
		var lo, hi int64
		switch {
		case u == d-1:
			lo, hi = part.LeafRange(th) //gate:allow bounds per-thread span lookup, T iterations
		case u == src:
			lo, hi = part.OwnedRange(th, u) //gate:allow bounds per-thread span lookup, T iterations
		default:
			lo = part.Start[th][u]                           //gate:allow bounds per-thread span lookup, T iterations
			hi = minI64(part.Own[th+1][u], int64(len(fids))) //gate:allow bounds per-thread span lookup, T iterations
		}
		t32 := int32(th)
		for c := lo; c < hi; c++ {
			r := fids[c]                         //gate:allow bounds partition-clamped span over the fiber-id column
			if w := writer[r]; w == WriterNone { //gate:allow bounds row addressed by stored fiber id, data-dependent
				writer[r] = t32
			} else if w != t32 {
				writer[r] = WriterShared
			}
		}
	}
	return writer
}

// checkModeSource panics unless (u, src) names a non-root mode of tree
// and a source level at or below it.
func checkModeSource(tree *csf.Tree, u, src int) {
	if d := tree.Order(); u < 1 || u >= d || src < u || src >= d {
		panic(fmt.Sprintf("kernels: accumulation census for u=%d, src=%d on an order-%d tree", u, src, d))
	}
}

// AccumPlan fixes, for one non-root MTTKRP output, how the scattered row
// contributions of T threads are combined. A row the census proves has a
// single writer is stored directly into the output matrix; each of the M
// rows two or more threads write gets one slot per thread, and Reduce
// overwrites those rows with the slots summed in thread order. That is the
// arithmetic of full privatization, so results are bit-identical at every
// T and reproducible run to run, in T·M·R floats instead of T·rows·R.
// A plan is built once (per core.Plan, per mode) and is immutable
// afterwards; every workspace's OutBuf shares it.
type AccumPlan struct {
	Rows, Cols, T int
	// Strategy is always AccumPriv, whose arithmetic the plan reproduces;
	// per-level strategy counters read it.
	Strategy AccumStrategy
	// Slot[r] is row r's slot index when two or more threads write it, or
	// -1. It is nil when no row has two writers, which always holds at
	// T=1: the kernels then store every row directly, with no lookup.
	Slot []int32
	// Shared lists the multi-writer rows ascending: Shared[k] is the row
	// of slot k.
	Shared []int32
}

// String renders the plan for Describe output, e.g. "direct(shared=3)".
func (p *AccumPlan) String() string {
	return fmt.Sprintf("direct(shared=%d)", len(p.Shared))
}

// PlanAccum builds the accumulation plan of the mode-u MTTKRP output read
// from source level src under part, with cols output columns. At T=1 every
// row has one writer and the census is skipped.
func PlanAccum(tree *csf.Tree, part *sched.Partition, u, src, cols int) *AccumPlan {
	checkModeSource(tree, u, src)
	var writer []int32
	if part.T > 1 {
		writer = CountRowWrites(tree, part, u, src)
	}
	return planFromCensus(tree.Dim(u), writer, cols, part.T)
}

// planFromCensus assigns one slot to every row the census marks
// WriterShared, in row order. A nil census has no shared rows.
//
//lint:allow hotpath-alloc plan-time construction, runs once per (plan, mode)
func planFromCensus(rows int, writer []int32, cols, t int) *AccumPlan {
	if cols <= 0 || t <= 0 {
		panic(fmt.Sprintf("kernels: PlanAccum(cols=%d, t=%d)", cols, t))
	}
	ap := &AccumPlan{Rows: rows, Cols: cols, T: t, Strategy: AccumPriv}
	for r, w := range writer {
		if w == WriterShared {
			ap.Shared = append(ap.Shared, int32(r))
		}
	}
	if len(ap.Shared) == 0 {
		return ap
	}
	ap.Slot = make([]int32, rows)
	for r := range ap.Slot {
		ap.Slot[r] = -1
	}
	for k, r := range ap.Shared {
		ap.Slot[r] = int32(k)
	}
	return ap
}
