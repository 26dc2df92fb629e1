//go:generate sh -c "go run stef/cmd/kernelgen -vec > vec_gen.go"
//go:generate sh -c "go run stef/cmd/kernelgen -shape > ../lint/gates/shape_gen.go"

package kernels

import (
	"fmt"

	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// ModeMTTKRP computes the non-root MTTKRP with a freshly allocated scratch;
// see ModeMTTKRPWith. It is the convenient form for one-shot callers and
// tests; engines on the repeated-solve path pass a pooled scratch instead.
func ModeMTTKRP(tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, buf *OutBuf, part *sched.Partition) {
	ModeMTTKRPWith(tree, factors, u, partials, buf, part, NewScratch(tree.Order(), factors[0].Cols, part.T))
}

// ModeMTTKRPWith computes the MTTKRP for CSF level u (0 < u <= d-1) into
// buf, reading the deepest useful source: the memoized P^(src) when
// src = partials.SourceLevel(u) < d-1, or the tensor leaves otherwise.
// This is Algorithm 4/5 of the paper for u > 0, covering Algorithms 6
// (src == u), 7 (u < src < d-1) and 8 (src == d-1) as special cases.
// sc supplies the per-thread accumulators; it must satisfy
// NewScratch(tree.Order(), R, part.T) or larger.
//
// The Khatri-Rao row k_{u-1} is built going down levels 0..u-1; below
// level u, partial results t_l are accumulated upward from the source
// level. Work is partitioned by the tree's source-level fibers: each
// thread processes exactly the source fibers it owns, so no contribution
// is duplicated; scattered output rows are combined through buf (direct
// stores and per-thread slots for a planned buffer, private copies or
// atomic adds for a legacy one). The caller must Reset buf beforehand and
// Reduce it afterwards.
func ModeMTTKRPWith(tree *csf.Tree, factors []*tensor.Matrix, u int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	lifeEnter(tree, sc)
	d := tree.Order()
	if u <= 0 || u >= d {
		panic(fmt.Sprintf("kernels: ModeMTTKRP mode %d out of range (order %d); use RootMTTKRP for mode 0", u, d))
	}
	sc.check(d, factors[0].Cols, part.T)
	src := partials.SourceLevel(u)

	// As in RootMTTKRPWith, the escaping par.Do closure is built only on
	// the multi-threaded branch.
	sc.shadow.begin(part)
	if part.T == 1 {
		modeThread(0, tree, factors, u, src, partials, buf, part, sc)
	} else {
		par.Do(part.T, func(th int) { //gate:allow escape multi-threaded launch; the T==1 path above stays allocation-free
			modeThread(th, tree, factors, u, src, partials, buf, part, sc)
		})
	}
	sc.shadow.end()
}

// modeThread is thread th's share of the mode-u MTTKRP read from source
// level src. Work is split by source-level fibers: the thread emits the
// contributions of exactly the source fibers it owns. It runs inline at
// T == 1 and under par.Do otherwise (see ModeMTTKRPWith).
//
// The walk is explicit-stack depth-first, as in rootThread. Opening a
// node above level u extends the Khatri-Rao row k by the node's factor
// row (k_0 aliases a factor row). A node one level above u emits its
// children's output contributions directly, from the leaves (leaf mode)
// or from P^(u) (Algorithm 6); in the leaf mode a node two levels above u
// does so for all its children in one flat loop. Otherwise the nodes from
// level u down to the source recompute t_l (Algorithms 7 and 8): opening
// clears t_l, and one level above the source folds the source rows in
// place; closing adds t_u ⊙ k into the output row at level u, or t_l times
// the node's factor row into the parent's t_{l-1} below it.
func modeThread(th int, tree *csf.Tree, factors []*tensor.Matrix, u, src int, partials *Partials, buf *OutBuf, part *sched.Partition, sc *Scratch) {
	oLo, oHi := part.OwnedRange(th, src)
	if oLo >= oHi {
		return
	}
	zero, addScaled, hadamardAccum, hadamardInto := sc.ops.zero, sc.ops.addScaled, sc.ops.hadamardAccum, sc.ops.hadamardInto
	lv := sc.launchLevels(th, tree, factors, partials, part)
	d := len(lv)
	for l := 1; l < u; l++ {
		lv[l].k = lv[l].t //gate:allow bounds level descriptors are sized to the order
	}
	sl, ul := &lv[src], &lv[u]
	sl.lo, sl.hi = oLo, oHi
	// The emission and source operands.
	vals, ufids, up, sfids, sf, sp := tree.ValsLevel(), ul.fids, ul.p, sl.fids, sl.f, sl.p
	leafLo, leafHi := lv[d-1].lo, lv[d-1].hi
	ob := buf.Thread(th)
	lv[0].at, lv[0].end = part.Start[th][0], minI64(int64(tree.NumFibers(0)), part.Own[th+1][0])
	for l := 0; ; {
		x := &lv[l] //gate:allow bounds level descriptor indexed by the walk depth, sized to the order
		if x.at < x.end {
			// Open node x.at.
			n := x.at
			kid := &lv[l+1]                   //gate:allow bounds level descriptor indexed by the walk depth, sized to the order
			cLo := maxI64(x.ptr[n], kid.lo)   //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
			cHi := minI64(x.ptr[n+1], kid.hi) //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
			if l < u {
				if l == 0 {
					x.k = x.f.Row(int(x.fids[n])) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				} else {
					hadamardInto(x.k, lv[l-1].k, x.f.Row(int(x.fids[n]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
				}
				k := x.k
				switch {
				case l+2 == u && u == d-1:
					// Leaf mode, the children are leaf parents: extend
					// k by each child's row and push it down to its
					// leaves in one flat loop.
					kk, kptr, kfids, kf := kid.k, kid.ptr, kid.fids, kid.f
					for c := cLo; c < cHi; c++ {
						hadamardInto(kk, k, kf.Row(int(kfids[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
						kLo := maxI64(kptr[c], leafLo)             //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
						kHi := minI64(kptr[c+1], leafHi)           //gate:allow bounds fiber pointer indexed by a partition-clamped node id, data-dependent
						for j := kLo; j < kHi; j++ {
							sc.shadow.own(th, u, j)
							ob.AddScaled(int(ufids[j]), vals[j], kk) //gate:allow bounds leaf values and output rows are addressed by stored fiber ids, data-dependent
						}
					}
					cLo = cHi
				case l+1 < u:
				case u == d-1:
					// Leaf mode of an order-2 tree: the root nodes are
					// the leaf parents.
					for c := cLo; c < cHi; c++ {
						sc.shadow.own(th, u, c)
						ob.AddScaled(int(ufids[c]), vals[c], k) //gate:allow bounds leaf values and output rows are addressed by stored fiber ids, data-dependent
					}
					cLo = cHi
				case u == src:
					// Memoized at exactly level u: one MTTV per owned fiber.
					for c := cLo; c < cHi; c++ {
						sc.shadow.own(th, u, c)
						ob.AddHadamard(int(ufids[c]), k, up.Row(int(c))) //gate:allow bounds output and memoized rows are addressed by stored ids, data-dependent
					}
					cLo = cHi
				}
			} else {
				t := x.t
				zero(t)
				switch {
				case l+1 < src:
				case src == d-1:
					for c := cLo; c < cHi; c++ {
						sc.shadow.own(th, src, c)
						addScaled(t, vals[c], sf.Row(int(sfids[c]))) //gate:allow bounds leaf values and factor rows are addressed by stored fiber ids, data-dependent
					}
					cLo = cHi
				default:
					for c := cLo; c < cHi; c++ {
						sc.shadow.own(th, src, c)
						hadamardAccum(t, sp.Row(int(c)), sf.Row(int(sfids[c]))) //gate:allow bounds memoized and factor rows are addressed by stored ids, data-dependent
					}
					cLo = cHi
				}
			}
			kid.at, kid.end = cLo, cHi
			l++
			continue
		}
		if l == 0 {
			return
		}
		// Level l is exhausted: close its parent.
		l--
		x = &lv[l]
		c := x.at
		x.at++
		switch {
		case l == u:
			ob.AddHadamard(int(x.fids[c]), lv[u-1].k, x.t) //gate:allow bounds output row addressed by stored fiber id, data-dependent
		case l > u:
			hadamardAccum(lv[l-1].t, x.t, x.f.Row(int(x.fids[c]))) //gate:allow bounds factor row addressed by stored fiber id, data-dependent
		}
	}
}
