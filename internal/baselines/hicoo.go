package baselines

import (
	"fmt"
	"sort"

	"stef/internal/cpd"
	"stef/internal/kernels"
	"stef/internal/par"
	"stef/internal/tensor"
)

// hicooFormat is a HiCOO-style blocked sparse layout (Li et al., SC'18):
// non-zeros are grouped into aligned 2^bits-per-side hyper-blocks; each
// block stores its base coordinates once at full width, and every non-zero
// inside the block stores only byte-wide offsets. This compresses index
// storage and gives block-level locality for MTTKRP without favouring any
// particular mode. It is included as an extension baseline beyond the
// paper's comparison set.
type hicooFormat struct {
	dims      []int
	bits      uint // log2 of the block side
	blockPtr  []int64
	blockBase [][]int32 // base coordinate per block (d per block)
	offsets   []uint8   // d per non-zero
	vals      []float64
}

// newHiCOO builds the blocked layout with 2^bits block sides.
func newHiCOO(t *tensor.Tensor, bits uint) (*hicooFormat, error) {
	if bits < 1 || bits > 8 {
		return nil, fmt.Errorf("baselines: hicoo: block bits %d outside 1..8", bits)
	}
	d := t.Order()
	nnz := t.NNZ()
	h := &hicooFormat{dims: append([]int(nil), t.Dims...), bits: bits}

	// Sort non-zeros by block coordinate (lexicographic over modes).
	idx := make([]int, nnz)
	for i := range idx {
		idx[i] = i
	}
	blockOf := func(k, m int) int32 { return t.Coord(k)[m] >> bits }
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := idx[a], idx[b]
		for m := 0; m < d; m++ {
			ba, bb := blockOf(ka, m), blockOf(kb, m)
			if ba != bb {
				return ba < bb
			}
		}
		// Within a block, keep coordinate order for locality.
		ca, cb := t.Coord(ka), t.Coord(kb)
		for m := 0; m < d; m++ {
			if ca[m] != cb[m] {
				return ca[m] < cb[m]
			}
		}
		return false
	})

	h.offsets = make([]uint8, nnz*d)
	h.vals = make([]float64, nnz)
	mask := int32(1<<bits - 1)
	var prev []int32
	for i, k := range idx {
		c := t.Coord(k)
		newBlock := prev == nil
		if !newBlock {
			for m := 0; m < d; m++ {
				if c[m]>>bits != prev[m]>>bits {
					newBlock = true
					break
				}
			}
		}
		if newBlock {
			base := make([]int32, d)
			for m := 0; m < d; m++ {
				base[m] = (c[m] >> bits) << bits
			}
			h.blockBase = append(h.blockBase, base)
			h.blockPtr = append(h.blockPtr, int64(i))
		}
		for m := 0; m < d; m++ {
			h.offsets[i*d+m] = uint8(c[m] & mask)
		}
		h.vals[i] = t.Vals[k]
		prev = c
	}
	h.blockPtr = append(h.blockPtr, int64(nnz))
	return h, nil
}

// numBlocks returns the block count.
func (h *hicooFormat) numBlocks() int { return len(h.blockBase) }

// bytes returns the index-storage footprint: the compression HiCOO exists
// for (d int32 per block + d uint8 per non-zero, versus d int32 per
// non-zero in COO).
func (h *hicooFormat) bytes() int64 {
	d := len(h.dims)
	return int64(h.numBlocks())*int64(d)*4 + int64(len(h.blockPtr))*8 +
		int64(len(h.offsets)) + int64(len(h.vals))*8
}

// HiCOOOptions configures the HiCOO-style engine.
type HiCOOOptions struct {
	Threads   int
	Rank      int
	BlockBits uint // log2 block side (default 7, i.e. 128)
}

// hicooEngine is the immutable blocked layout plus the nnz-balanced thread
// block ranges.
type hicooEngine struct {
	h       *hicooFormat
	d       int
	rank    int
	threads int
	order   []int
	dims    []int
	bounds  []int
}

// hicooWorkspace holds one solve's output buffers.
type hicooWorkspace struct {
	bufs []*kernels.OutBuf
}

// Reset is a no-op: every buffer is Reset inside Compute before use.
func (w *hicooWorkspace) Reset() {}

func (e *hicooEngine) Name() string { return "hicoo" }

func (e *hicooEngine) UpdateOrder() []int { return e.order }

func (e *hicooEngine) NewWorkspace() cpd.Workspace {
	w := &hicooWorkspace{bufs: make([]*kernels.OutBuf, e.d)}
	for m := 0; m < e.d; m++ {
		w.bufs[m] = kernels.NewOutBuf(e.dims[m], e.rank, e.threads, 0)
	}
	return w
}

func (e *hicooEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	w, ok := ws.(*hicooWorkspace)
	if !ok {
		panic(fmt.Sprintf("baselines: hicoo Compute got workspace type %T", ws))
	}
	u := pos
	buf := w.bufs[u]
	buf.Reset(out)
	h, d, r, bounds := e.h, e.d, e.rank, e.bounds
	par.Do(e.threads, func(th int) {
		row := make([]float64, r)
		coord := make([]int32, d)
		for b := bounds[th]; b < bounds[th+1]; b++ {
			base := h.blockBase[b]
			for k := h.blockPtr[b]; k < h.blockPtr[b+1]; k++ {
				for m := 0; m < d; m++ {
					coord[m] = base[m] + int32(h.offsets[k*int64(d)+int64(m)])
				}
				for j := range row {
					row[j] = h.vals[k]
				}
				for m := 0; m < d; m++ {
					if m == u {
						continue
					}
					f := factors[m].Row(int(coord[m]))
					for j := range row {
						row[j] *= f[j]
					}
				}
				buf.AddScaled(th, int(coord[u]), 1, row)
			}
		}
	})
	buf.Reduce(out)
}

// NewHiCOO builds the HiCOO-style engine: block-parallel MTTKRP that
// recomputes every mode from the blocked layout. Blocks are distributed
// across threads in contiguous runs balanced by non-zero count.
func NewHiCOO(t *tensor.Tensor, opts HiCOOOptions) (cpd.Engine, error) {
	if opts.Threads < 1 {
		opts.Threads = 1
	}
	if opts.BlockBits == 0 {
		opts.BlockBits = 7
	}
	h, err := newHiCOO(t, opts.BlockBits)
	if err != nil {
		return nil, err
	}
	d := t.Order()
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	// Thread block ranges balanced by non-zeros.
	nb := h.numBlocks()
	bounds := make([]int, opts.Threads+1)
	nnz := int64(t.NNZ())
	for th := 1; th < opts.Threads; th++ {
		target := int64(th) * nnz / int64(opts.Threads)
		s := sort.Search(nb, func(i int) bool { return h.blockPtr[i] >= target })
		if s < bounds[th-1] {
			s = bounds[th-1]
		}
		bounds[th] = s
	}
	bounds[opts.Threads] = nb

	return &hicooEngine{
		h:       h,
		d:       d,
		rank:    opts.Rank,
		threads: opts.Threads,
		order:   order,
		dims:    append([]int(nil), t.Dims...),
		bounds:  bounds,
	}, nil
}
