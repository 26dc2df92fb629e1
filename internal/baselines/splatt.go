// Package baselines re-implements the algorithmic cores of the systems the
// paper compares against — SPLATT (one, two, or d CSF copies), AdaTM
// (op-count-driven memoization), ALTO (linearized storage, full recompute)
// and TACO (chunk-autotuned CSF) — behind the same cpd.Engine interface as
// STeF, so every engine runs the identical CPD-ALS driver and the
// comparison isolates the MTTKRP strategy. Every engine here is immutable
// after construction; all mutable solve state lives in the workspace its
// NewWorkspace manufactures.
package baselines

import (
	"fmt"

	"stef/internal/cpd"
	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// SplattOptions configures the SPLATT-style engines.
type SplattOptions struct {
	// Copies is the number of CSF representations: 1, 2 or -1 for
	// "all" (one per mode).
	Copies int
	// Threads is the worker count.
	Threads int
	// Rank is the decomposition rank.
	Rank int
}

// permRootedAt returns a mode permutation with root mode m first and the
// remaining modes in increasing length order — SPLATT's tiling heuristic.
func permRootedAt(dims []int, m int) []int {
	sorted := tensor.LengthSortedPerm(dims)
	perm := []int{m}
	for _, mm := range sorted {
		if mm != m {
			perm = append(perm, mm)
		}
	}
	return perm
}

// splattEngine is the immutable state of a SPLATT-style engine: the CSF
// copies, their partitions and a no-memoization Partials (read-only, safe
// to share across concurrent solves since nothing is ever saved into it).
type splattEngine struct {
	name     string
	d        int
	rank     int
	threads  int
	order    []int
	base     *csf.Tree
	basePart *sched.Partition
	tree2    *csf.Tree
	part2    *sched.Partition
	trees    map[int]*csf.Tree // mode -> tree rooted at mode (splatt-all)
	parts    map[int]*sched.Partition
	noMemo   *kernels.Partials
}

// splattWorkspace carries the per-solve buffers of a SPLATT engine.
type splattWorkspace struct {
	bufs    []*kernels.OutBuf
	lf      []*tensor.Matrix
	scratch *kernels.Scratch
}

// Reset is a no-op: every buffer is Reset or overwritten inside Compute.
func (w *splattWorkspace) Reset() {}

func (e *splattEngine) Name() string { return e.name }

func (e *splattEngine) UpdateOrder() []int { return e.order }

func (e *splattEngine) NewWorkspace() cpd.Workspace {
	w := &splattWorkspace{
		bufs:    make([]*kernels.OutBuf, e.d),
		lf:      make([]*tensor.Matrix, e.d),
		scratch: kernels.NewScratch(e.d, e.rank, e.threads),
	}
	for u := 1; u < e.d; u++ {
		w.bufs[u] = kernels.NewOutBuf(e.base.Dim(u), e.rank, e.threads, 0)
	}
	return w
}

func (e *splattEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	w, ok := ws.(*splattWorkspace)
	if !ok {
		panic(fmt.Sprintf("baselines: splatt Compute got workspace type %T", ws))
	}
	mode := e.order[pos]
	if tr, found := e.trees[mode]; found {
		kernels.LevelFactorsInto(w.lf, factors, tr.Perm())
		kernels.RootMTTKRPWith(tr, w.lf, out, e.noMemo, e.parts[mode], w.scratch)
		return
	}
	if pos == e.d-1 && e.tree2 != nil {
		kernels.LevelFactorsInto(w.lf, factors, e.tree2.Perm())
		kernels.RootMTTKRPWith(e.tree2, w.lf, out, e.noMemo, e.part2, w.scratch)
		return
	}
	kernels.LevelFactorsInto(w.lf, factors, e.base.Perm())
	if pos == 0 {
		kernels.RootMTTKRPWith(e.base, w.lf, out, e.noMemo, e.basePart, w.scratch)
		return
	}
	buf := w.bufs[pos]
	buf.Reset(out)
	kernels.ModeMTTKRPWith(e.base, w.lf, pos, e.noMemo, buf, e.basePart, w.scratch)
	buf.Reduce(out)
}

// NewSplatt builds a SPLATT-style engine: slice-granular parallelism over
// the root mode, no memoization. With one copy, non-root modes run the
// generic CSF kernel; with d copies ("splatt-all"), every mode is the root
// of its own CSF; with two copies, the second CSF is rooted at the base
// CSF's leaf mode.
func NewSplatt(t *tensor.Tensor, opts SplattOptions) cpd.Engine {
	d := t.Order()
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	basePerm := tensor.LengthSortedPerm(t.Dims)
	base := csf.Build(t, basePerm)

	e := &splattEngine{
		name:     "splatt-1",
		d:        d,
		rank:     opts.Rank,
		threads:  opts.Threads,
		order:    append([]int(nil), basePerm...),
		base:     base,
		basePart: sched.NewSlicePartitionNNZ(base, opts.Threads).ToPartition(base),
		trees:    map[int]*csf.Tree{},
		parts:    map[int]*sched.Partition{},
		noMemo:   kernels.NoPartials(d),
	}
	switch {
	case opts.Copies < 0 || opts.Copies >= d:
		e.name = "splatt-all"
		for m := 0; m < d; m++ {
			tr := csf.Build(t, permRootedAt(t.Dims, m))
			e.trees[m] = tr
			e.parts[m] = sched.NewSlicePartitionNNZ(tr, opts.Threads).ToPartition(tr)
		}
	case opts.Copies == 2:
		e.name = "splatt-2"
		perm2 := append([]int{basePerm[d-1]}, basePerm[:d-1]...)
		e.tree2 = csf.Build(t, perm2)
		e.part2 = sched.NewSlicePartitionNNZ(e.tree2, opts.Threads).ToPartition(e.tree2)
	}
	return e
}
