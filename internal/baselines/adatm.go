package baselines

import (
	"fmt"

	"stef/internal/cpd"
	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/model"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// AdaTMOptions configures the AdaTM-style engine.
type AdaTMOptions struct {
	Threads int
	Rank    int
}

// adatmEngine is immutable: the CSF, partition and the op-count-chosen memo
// configuration. The memoized partials themselves are per-solve state.
type adatmEngine struct {
	d       int
	rank    int
	threads int
	order   []int
	tree    *csf.Tree
	part    *sched.Partition
	save    []bool
}

// adatmWorkspace holds one solve's memoized partials and output buffers.
type adatmWorkspace struct {
	partials *kernels.Partials
	bufs     []*kernels.OutBuf
	lf       []*tensor.Matrix
	scratch  *kernels.Scratch
}

// Reset is a no-op: the pos-0 Compute call rewrites the memoized partials
// before any later mode reads them, and output buffers are Reset in Compute.
func (w *adatmWorkspace) Reset() {}

func (e *adatmEngine) Name() string { return "adatm" }

func (e *adatmEngine) UpdateOrder() []int { return e.order }

func (e *adatmEngine) NewWorkspace() cpd.Workspace {
	w := &adatmWorkspace{
		partials: kernels.NewPartials(e.tree, e.rank, e.save),
		bufs:     make([]*kernels.OutBuf, e.d),
		lf:       make([]*tensor.Matrix, e.d),
		scratch:  kernels.NewScratch(e.d, e.rank, e.threads),
	}
	for u := 1; u < e.d; u++ {
		w.bufs[u] = kernels.NewOutBuf(e.tree.Dim(u), e.rank, e.threads, 0)
	}
	return w
}

func (e *adatmEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	w, ok := ws.(*adatmWorkspace)
	if !ok {
		panic(fmt.Sprintf("baselines: adatm Compute got workspace type %T", ws))
	}
	kernels.LevelFactorsInto(w.lf, factors, e.tree.Perm())
	if pos == 0 {
		kernels.RootMTTKRPWith(e.tree, w.lf, out, w.partials, e.part, w.scratch)
		return
	}
	buf := w.bufs[pos]
	buf.Reset()
	kernels.ModeMTTKRPWith(e.tree, w.lf, pos, w.partials, buf, e.part, w.scratch)
	buf.Reduce(out)
}

// NewAdaTM builds an engine that, like Li et al.'s AdaTM, memoizes partial
// MTTKRP results chosen by an operation-count model: memoization is applied
// whenever it removes recomputation FLOPs, regardless of the extra data
// movement it induces. Work is distributed at slice granularity, and the
// last-two-mode layout is never reconsidered. Those three deltas — the
// decision objective, the work distribution and the layout switch — are
// exactly what the paper credits for STeF's advantage over AdaTM.
func NewAdaTM(t *tensor.Tensor, opts AdaTMOptions) cpd.Engine {
	d := t.Order()
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	perm := tensor.LengthSortedPerm(t.Dims)
	tree := csf.Build(t, perm)

	params := model.ParamsForCache(tree.Dims(), tree.FiberCounts(), opts.Rank, 0)
	cfg := model.SearchOpCount(params)

	return &adatmEngine{
		d:       d,
		rank:    opts.Rank,
		threads: opts.Threads,
		order:   append([]int(nil), perm...),
		tree:    tree,
		part:    sched.NewSlicePartitionNNZ(tree, opts.Threads).ToPartition(tree),
		save:    cfg.Save,
	}
}
