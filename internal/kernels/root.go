package kernels

import (
	"fmt"

	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// RootMTTKRP computes the mode-0 MTTKRP with a freshly allocated scratch;
// see RootMTTKRPWith. It is the convenient form for one-shot callers and
// tests; engines on the repeated-solve path pass a pooled scratch instead.
func RootMTTKRP(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition) {
	RootMTTKRPWith(tree, factors, out, partials, part, NewScratch(tree.Order(), factors[0].Cols, part.T))
}

// RootMTTKRPWith computes the mode-0 MTTKRP of the CSF tree (the mode
// stored at the tree's root level) into out, memoizing P^(l) for every
// level with partials.Save[l] set, in a single downward pass (Algorithm 4/5
// with u = 0). factors are indexed by CSF level, i.e. factors[l]
// corresponds to tree level l, and out receives the result for the root
// level's mode. sc supplies the per-thread accumulators and boundary rows;
// it must satisfy NewScratch(tree.Order(), R, part.T) or larger.
//
// Parallelism follows the partition: each thread processes its leaf range;
// fibers whose leaves span a thread boundary are accumulated into boundary
// replica rows and merged afterwards, so no atomics and no full output
// privatization are needed (Section III-A). One order-agnostic kernel
// (rootThread) serves every order.
func RootMTTKRPWith(tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	lifeEnter(tree, sc)
	d := tree.Order()
	if len(factors) != d {
		panic(fmt.Sprintf("kernels: %d factors for order-%d tensor", len(factors), d))
	}
	r := factors[0].Cols
	if out.Rows != tree.Dim(0) || out.Cols != r {
		panic(fmt.Sprintf("kernels: output shape %dx%d, want %dx%d", out.Rows, out.Cols, tree.Dim(0), r))
	}
	sc.check(d, r, part.T)
	out.Zero()

	// Boundary replica rows: one per (thread, level), used both for saved
	// partial levels and, at level 0, for the output. A pooled scratch
	// carries stale rows from the previous launch; the merge below assumes
	// unwritten rows are zero, so clear the levels it will read.
	for l := 0; l < d-1; l++ {
		if l == 0 || partials.Save[l] { //gate:allow bounds Save is sized to the order; l ranges over levels
			sc.bound[l].Zero()
		}
	}

	// A closure passed to par.Do always escapes (escape analysis is not
	// path-sensitive about the goroutine branch), so it is built only on
	// the multi-threaded branch: the single-threaded steady state stays
	// free of heap allocation.
	sc.shadow.begin(part)
	if part.T == 1 {
		rootThread(0, tree, factors, out, partials, part, sc)
	} else {
		par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
			rootThread(th, tree, factors, out, partials, part, sc)
		})
	}
	mergeBoundaries(tree, out, partials, part, sc.bound)
	sc.shadow.end()
}

// rootThread is thread th's share of the root-mode MTTKRP. It runs inline
// at T == 1 and under par.Do otherwise (see RootMTTKRPWith).
//
// Each of the thread's root nodes is folded by an explicit-stack
// depth-first walk over the levels below it, the recursion of Algorithm 4
// without a call per node. Opening a node clears its t_l and queues its
// children; closing it, once they are exhausted, keeps t_l if its level
// is saved and accumulates it, times the node's factor row, into the
// parent's t_{l-1}. The leaf parents, the most numerous interior level,
// never go through the stack: opening a node whose children are leaf
// parents folds each child's leaves and closes it in one flat loop.
func rootThread(th int, tree *csf.Tree, factors []*tensor.Matrix, out *tensor.Matrix, partials *Partials, part *sched.Partition, sc *Scratch) {
	// Rebind the rank-vector primitives to the scratch's R-specialized set
	// (vec.go); the names shadow the generic package functions on purpose.
	zero, addScaled, hadamardAccum := sc.ops.zero, sc.ops.addScaled, sc.ops.hadamardAccum
	lv := sc.launchLevels(th, tree, factors, partials, part)
	d := len(lv)
	vals, leaf := tree.ValsLevel(), &lv[d-1]
	leafFids, leafF, leafLo, leafHi := leaf.fids, leaf.f, leaf.lo, leaf.hi
	root := &lv[0]
	fids0, t0, own0, bnd0 := root.fids, root.t, root.own, root.bnd
	lo, hi := part.Start[th][0], part.Own[th+1][0]
	for n := lo; n < hi; n++ {
		root.at, root.end = n, n+1
		for l := 0; ; {
			x := &lv[l] //gate:allow bounds level descriptor indexed by the walk depth, sized to the order
			if x.at < x.end {
				// Open node x.at.
				kid := &lv[l+1]                      //gate:allow bounds level descriptor indexed by the walk depth, sized to the order
				cLo := maxI64(x.ptr[x.at], kid.lo)   //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
				cHi := minI64(x.ptr[x.at+1], kid.hi) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
				t := x.t
				zero(t)
				switch {
				case l+2 == d:
					// x is a leaf parent (the root of an order-2 tree).
					foldLeaves(addScaled, t, vals, leafFids, leafF, cLo, cHi) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
					cLo = cHi
				case l+3 == d:
					kt, kptr, kfids, kf := kid.t, kid.ptr, kid.fids, kid.f
					for c := cLo; c < cHi; c++ {
						zero(kt)
						kLo := maxI64(kptr[c], leafLo)                             //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
						kHi := minI64(kptr[c+1], leafHi)                           //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
						foldLeaves(addScaled, kt, vals, leafFids, leafF, kLo, kHi) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
						sc.keep(th, l+1, kid, c)                                   //gate:allow bounds memoized partial row addressed by node id, data-dependent
						hadamardAccum(t, kt, kf.Row(int(kfids[c])))                //gate:allow bounds factor row addressed by stored fiber id, data-dependent
					}
					cLo = cHi
				}
				kid.at, kid.end = cLo, cHi
				l++
				continue
			}
			if l == 0 {
				break
			}
			// Level l is exhausted: close its parent.
			l--
			x = &lv[l]
			c := x.at
			x.at++
			if l > 0 {
				sc.keep(th, l, x, c)                                   //gate:allow bounds memoized partial row addressed by node id, data-dependent
				hadamardAccum(lv[l-1].t, x.t, x.f.Row(int(x.fids[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
			}
		}
		if n >= own0 {
			sc.shadow.own(th, 0, n)
			copy(out.Row(int(fids0[n])), t0) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		} else {
			sc.shadow.boundary(th, 0, n)
			copy(bnd0, t0)
		}
	}
}

// foldLeaves accumulates the leaves [lo, hi) into t: t += val_k * row.
// It is small enough to inline, so the leaf loop stays flat at each use.
func foldLeaves(addScaled func(dst []float64, s float64, src []float64), t, vals []float64, fids []int32, f *tensor.Matrix, lo, hi int64) {
	for k := lo; k < hi; k++ {
		addScaled(t, vals[k], f.Row(int(fids[k]))) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
	}
}

// keep memoizes x.t as node c's row when level l is saved: the canonical
// P^(l) row when thread th owns c, else its boundary replica row.
func (s *Scratch) keep(th, l int, x *level, c int64) {
	switch {
	case x.p == nil:
	case c < x.own:
		s.shadow.boundary(th, l, c)
		copy(x.bnd, x.t)
	default:
		s.shadow.own(th, l, c)
		copy(x.p.Row(int(c)), x.t) //gate:allow bounds memoized partial row addressed by node id, data-dependent
	}
}

// mergeBoundaries folds the per-thread boundary replica rows into the
// canonical rows. Only a thread's first touched node per level can be
// non-owned, so each (thread, level) contributes at most one row; threads
// with no leaves never write their replica row, which RootMTTKRPWith
// zeroed, so merging unconditionally is safe. Levels with no saved partial
// are skipped: their replica rows are never written (and never cleared).
func mergeBoundaries(tree *csf.Tree, out *tensor.Matrix, partials *Partials, part *sched.Partition, bound []*tensor.Matrix) {
	d := tree.Order()
	for th := 1; th < part.T; th++ {
		for l := 0; l < d-1; l++ {
			if l > 0 && !partials.Save[l] {
				continue
			}
			if bound[l] == nil || !part.SharedStart(th, l) {
				continue
			}
			nd := part.Start[th][l]
			src := bound[l].Row(th)
			var dst []float64
			if l == 0 {
				dst = out.Row(int(tree.FidLevel(0)[nd]))
			} else {
				dst = partials.P[l].Row(int(nd))
			}
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}
}
