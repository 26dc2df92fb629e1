package baselines

import (
	"fmt"
	"sort"

	"stef/internal/cpd"
	"stef/internal/kernels"
	"stef/internal/par"
	"stef/internal/tensor"
)

// altoFormat is a linearized sparse-tensor layout in the spirit of ALTO
// (Helal et al., ICS'21): every non-zero carries a single compact key built
// by interleaving the bits of its mode coordinates, and the non-zeros are
// sorted by that key. Bit interleaving gives space-filling-curve locality
// across *all* modes simultaneously, so one layout serves every MTTKRP
// without re-sorting; the cost is that each mode is recomputed from scratch.
type altoFormat struct {
	dims   []int
	bits   []int // bits needed per mode
	keys   []uint64
	vals   []float64
	coords []int32 // nnz*d, sorted by key
}

// newALTO linearizes t. All benchmark profiles fit the total bit budget of
// 64; tensors that do not are rejected (the real ALTO falls back to 128-bit
// indices, which the paper also evaluates — here the coordinate payload is
// retained alongside the key, so correctness never depends on the key
// width and the 64-bit limit only gates the locality sort).
func newALTO(t *tensor.Tensor) (*altoFormat, error) {
	d := t.Order()
	a := &altoFormat{dims: append([]int(nil), t.Dims...), bits: make([]int, d)}
	total := 0
	for m, n := range t.Dims {
		b := 0
		for 1<<b < n {
			b++
		}
		a.bits[m] = b
		total += b
	}
	if total > 64 {
		return nil, fmt.Errorf("baselines: alto: %d index bits exceed 64", total)
	}
	nnz := t.NNZ()
	a.keys = make([]uint64, nnz)
	a.vals = make([]float64, nnz)
	a.coords = make([]int32, nnz*d)
	for k := 0; k < nnz; k++ {
		a.keys[k] = a.interleave(t.Coord(k))
	}
	// Sort by key while carrying values and coordinates.
	idx := make([]int, nnz)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return a.keys[idx[i]] < a.keys[idx[j]] })
	sortedKeys := make([]uint64, nnz)
	for i, p := range idx {
		sortedKeys[i] = a.keys[p]
		a.vals[i] = t.Vals[p]
		copy(a.coords[i*d:(i+1)*d], t.Coord(p))
	}
	a.keys = sortedKeys
	return a, nil
}

// interleave packs the coordinates into one key, round-robin over modes
// from least-significant bit upward (modes with exhausted bit budgets drop
// out), which is ALTO's adaptive bit layout in simplified form.
func (a *altoFormat) interleave(coord []int32) uint64 {
	var key uint64
	out := 0
	for b := 0; b < 32; b++ {
		for m := range a.bits {
			if b < a.bits[m] {
				key |= uint64(coord[m]>>b&1) << out
				out++
			}
		}
	}
	return key
}

// ALTOOptions configures the ALTO-style engine.
type ALTOOptions struct {
	Threads int
	Rank    int
}

// altoEngine is the immutable linearized layout plus scheduling constants.
type altoEngine struct {
	a       *altoFormat
	d       int
	nnz     int
	rank    int
	threads int
	order   []int
	dims    []int
}

// altoWorkspace holds one solve's output buffers.
type altoWorkspace struct {
	bufs []*kernels.OutBuf
}

// Reset is a no-op: every buffer is Reset inside Compute before use.
func (w *altoWorkspace) Reset() {}

func (e *altoEngine) Name() string { return "alto" }

func (e *altoEngine) UpdateOrder() []int { return e.order }

func (e *altoEngine) NewWorkspace() cpd.Workspace {
	w := &altoWorkspace{bufs: make([]*kernels.OutBuf, e.d)}
	for m := 0; m < e.d; m++ {
		w.bufs[m] = kernels.NewOutBuf(e.dims[m], e.rank, e.threads, 0)
	}
	return w
}

func (e *altoEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	w, ok := ws.(*altoWorkspace)
	if !ok {
		panic(fmt.Sprintf("baselines: alto Compute got workspace type %T", ws))
	}
	u := pos
	buf := w.bufs[u]
	buf.Reset(out)
	a, d, r := e.a, e.d, e.rank
	par.Blocks(e.nnz, e.threads, func(th, lo, hi int) {
		row := make([]float64, r)
		for k := lo; k < hi; k++ {
			c := a.coords[k*d : (k+1)*d]
			for j := range row {
				row[j] = a.vals[k]
			}
			for m := 0; m < d; m++ {
				if m == u {
					continue
				}
				f := factors[m].Row(int(c[m]))
				for j := range row {
					row[j] *= f[j]
				}
			}
			buf.AddScaled(th, int(c[u]), 1, row)
		}
	})
	buf.Reduce(out)
}

// NewALTO builds the ALTO-style engine: non-zero-parallel MTTKRP directly
// on the linearized layout, recomputing every mode from scratch. Like the
// original, it is naturally load-balanced (non-zeros split evenly) and
// needs no per-mode tensor copies, but performs the full FLOP count for
// every mode.
func NewALTO(t *tensor.Tensor, opts ALTOOptions) (cpd.Engine, error) {
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	a, err := newALTO(t)
	if err != nil {
		return nil, err
	}
	d := t.Order()
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	return &altoEngine{
		a:       a,
		d:       d,
		nnz:     t.NNZ(),
		rank:    opts.Rank,
		threads: opts.Threads,
		order:   order,
		dims:    append([]int(nil), t.Dims...),
	}, nil
}
