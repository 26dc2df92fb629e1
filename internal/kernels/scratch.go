package kernels

import (
	"fmt"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// Scratch holds the per-thread temporary state of the MTTKRP kernels: the
// per-level rank-vector accumulators and the boundary replica rows of the
// no-atomics merge scheme. One Scratch serves every kernel of one engine
// (root and non-root, both CSF trees): the slot layout is indexed by CSF
// level, and boundary rows are dead after each root call returns. A Scratch
// belongs to exactly one in-flight MTTKRP at a time; workspaces pool them
// so steady-state solves allocate nothing.
type Scratch struct {
	threads int
	rank    int
	stride  int // padded rank, keeps threads off shared cache lines
	slots   int // accumulator slots per thread, one per CSF level 0..d-2
	vecs    []float64
	// bound[l] holds one boundary replica row per thread for level l
	// (level 0 stands in for the root output). Kernels must zero the rows
	// they merge before writing: pooled reuse leaves stale data behind.
	bound []*tensor.Matrix
	// levels holds each thread's view of every CSF level, slots+1 entries
	// per thread, refilled at the top of each thread body (launchLevels).
	levels []level
	// ops is the rank-vector primitive set, R-specialized when the rank
	// has a blocked form (vec.go / vec_gen.go). Kernels rebind the
	// primitive names from here at the top of each thread body.
	ops vecOps
	// shadow is the write-disjointness oracle; a no-op unless built with
	// -tags shadowtrace (see shadow_off.go / shadow_on.go).
	shadow shadowState
	// life is the workspace-lifetime oracle; a no-op unless built with
	// -tags lifetrace (see life_off.go / life_on.go).
	life lifeScratchState
}

// NewScratch sizes a scratch for order-d trees at the given rank and thread
// count.
func NewScratch(d, rank, threads int) *Scratch {
	if d < 2 || rank <= 0 || threads <= 0 {
		panic(fmt.Sprintf("kernels: NewScratch(d=%d, rank=%d, threads=%d)", d, rank, threads))
	}
	s := &Scratch{
		threads: threads,
		rank:    rank,
		stride:  (rank + 7) &^ 7,
		slots:   d - 1,
		bound:   make([]*tensor.Matrix, d-1),
		ops:     opsFor(rank),
	}
	s.vecs = make([]float64, threads*s.slots*s.stride)
	s.levels = make([]level, threads*d)
	for l := range s.bound {
		s.bound[l] = tensor.NewMatrix(threads, rank)
	}
	return s
}

// vec returns thread th's accumulator for the given slot (CSF level), with
// capacity clamped to rank so appends can never bleed into a neighbour.
func (s *Scratch) vec(th, slot int) []float64 {
	base := (th*s.slots + slot) * s.stride
	return s.vecs[base : base+s.rank : base+s.rank]
}

// level is one CSF level as one thread's kernel launch sees it: the
// level's operands, the thread's share of its nodes, and the kernel's
// depth-first walk state. The CSF slices and partition bounds live behind
// pointers the compiler must assume any store could alias; resolving them
// once per launch lets the walk read a level's operands from one place.
type level struct {
	ptr  []int64 // child ranges; nil at the leaf level
	fids []int32
	f    *tensor.Matrix // the level's factor
	p    *tensor.Matrix // memoized P^(l), nil unless saved
	// lo and hi clamp the level's nodes to the thread's share: the nodes
	// it touches or, at a non-root kernel's source level, the fibers it
	// owns. own is its first owned node; a touched node below it is the
	// shared one whose row goes to the boundary replica.
	lo, hi, own int64
	t           []float64 // the thread's accumulator; nil at the leaf level
	bnd         []float64 // the thread's boundary replica row; nil at the leaf level
	// at is the node the walk has open at this level and [at, end) the
	// siblings still to visit; k is the Khatri-Rao row of the open node
	// (non-root kernels, levels above the output level).
	at, end int64
	k       []float64
}

// launchLevels resolves thread th's view of the levels of tree for one
// kernel launch.
func (s *Scratch) launchLevels(th int, tree *csf.Tree, factors []*tensor.Matrix, partials *Partials, part *sched.Partition) []level {
	d := tree.Order()
	lv := s.levels[th*(s.slots+1) : th*(s.slots+1)+d]
	start, end, own := part.Start[th], part.Own[th+1], part.Own[th]
	for l := range lv {
		lv[l] = level{
			fids: tree.FidLevel(l), f: factors[l], p: partials.P[l],
			lo: start[l], hi: end[l], own: own[l],
		}
		if l < d-1 {
			x := &lv[l]
			x.ptr, x.t, x.bnd = tree.PtrLevel(l), s.vec(th, l), s.bound[l].Row(th)
		}
	}
	return lv
}

// check panics unless the scratch fits an order-d kernel launch at the
// given rank and partition width.
func (s *Scratch) check(d, rank, threads int) {
	if s.rank != rank || s.threads < threads || s.slots < d-1 {
		panic(fmt.Sprintf("kernels: scratch sized for rank=%d threads=%d slots=%d, kernel needs rank=%d threads=%d order=%d",
			s.rank, s.threads, s.slots, rank, threads, d))
	}
}
