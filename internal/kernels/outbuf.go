package kernels

import (
	"fmt"
	"math"
	"sync/atomic"

	"stef/internal/par"
	"stef/internal/tensor"
)

// DefaultPrivatizeMaxElems bounds the total element count (rows×cols×T) up
// to which the legacy footprint rule privatizes non-root MTTKRP outputs per
// thread. Above the bound, threads scatter with lock-free compare-and-swap
// adds instead — the paper's "either atomic updates are needed, or each
// thread needs to hold its own copy" (Section III-B). Planned buffers
// (NewOutBufPlanned) need neither: the write census sends single-writer
// rows straight to the output and gives only the shared rows per-thread
// slots.
const DefaultPrivatizeMaxElems = 1 << 24

// AccumStrategy names how an OutBuf combines the scattered row
// contributions of T threads.
type AccumStrategy uint8

const (
	// AccumPriv sums per-thread contributions in thread order: full
	// private copies for legacy buffers, direct stores plus per-thread
	// slots for planned ones (every planned buffer reports it).
	AccumPriv AccumStrategy = iota
	// AccumHybrid is no longer built; the name is kept only so the
	// benchmark's per-level strategy counter (perfbench/bench.go) keeps
	// compiling.
	AccumHybrid
	// AccumAtomic scatters every row into one shared buffer with CAS adds
	// (the paper's atomic extreme). Only legacy footprint-rule buffers use
	// it.
	AccumAtomic
)

func (s AccumStrategy) String() string {
	switch s {
	case AccumPriv:
		return "priv"
	case AccumHybrid:
		return "hybrid"
	case AccumAtomic:
		return "atomic"
	}
	return fmt.Sprintf("accum(%d)", uint8(s))
}

// OutBuf accumulates a scattered MTTKRP output matrix from T threads. A
// buffer is either *planned* — built from an AccumPlan, it stores
// single-writer rows straight into the output matrix bound by Reset and
// sums the shared rows' per-thread slots into it in Reduce — or *legacy*,
// using the binary footprint rule (full privatization below
// DefaultPrivatizeMaxElems, CAS above), which the baseline engines keep.
type OutBuf struct {
	rows, cols int
	t          int
	plan       *AccumPlan       // nil for legacy footprint-rule buffers
	out        *tensor.Matrix   // planned: the output bound by Reset
	slots      []float64        // planned: T contiguous M×cols slabs, M = len(plan.Shared)
	priv       []*tensor.Matrix // legacy privatized
	shared     []uint64         // legacy CAS: float64 bit patterns
	ops        vecOps           // rank-vector primitives, R-specialized when cols matches
	shadow     outbufShadow     // write-ownership oracle (-tags shadowtrace)
}

// NewOutBuf returns a legacy accumulation buffer for a rows×cols output
// shared by t threads, privatized iff rows·cols·t fits maxPrivElems
// (<= 0 selects DefaultPrivatizeMaxElems). The footprint is computed in
// int64 so huge outputs cannot overflow the check on 32-bit platforms.
func NewOutBuf(rows, cols, t int, maxPrivElems int64) *OutBuf {
	if maxPrivElems <= 0 {
		maxPrivElems = DefaultPrivatizeMaxElems
	}
	if rows < 0 || cols < 0 || t < 1 {
		panic(fmt.Sprintf("kernels: NewOutBuf(rows=%d, cols=%d, t=%d)", rows, cols, t))
	}
	b := &OutBuf{rows: rows, cols: cols, t: t, ops: opsFor(cols)}
	elems := int64(rows) * int64(cols)
	if t == 1 || elems*int64(t) <= maxPrivElems {
		b.priv = make([]*tensor.Matrix, t)
		for th := range b.priv {
			b.priv[th] = tensor.NewMatrix(rows, cols)
		}
		return b
	}
	if int64(int(elems)) != elems {
		panic(fmt.Sprintf("kernels: output buffer %dx%d overflows the address space", rows, cols))
	}
	b.shared = make([]uint64, int(elems))
	return b
}

// NewOutBufPlanned returns an accumulation buffer executing the given plan.
// The plan is shared, read-only; the buffer holds only the T·M·cols slot
// slabs, so one plan serves any number of concurrent workspaces.
func NewOutBufPlanned(ap *AccumPlan) *OutBuf {
	return &OutBuf{
		rows: ap.Rows, cols: ap.Cols, t: ap.T, plan: ap, ops: opsFor(ap.Cols),
		slots: make([]float64, ap.T*len(ap.Shared)*ap.Cols),
	}
}

// Privatized reports whether the buffer holds full per-thread copies.
func (b *OutBuf) Privatized() bool { return b.priv != nil }

// OutBufThread is thread th's write handle on an OutBuf: the per-thread
// indirection (store target, slot slab, slot map) is resolved once at
// kernel-launch time so the per-nonzero AddScaled/AddHadamard calls stay
// branch-light. The handle is a small value; kernels hoist it out of their
// fiber loops.
type OutBufThread struct {
	b      *OutBuf
	th     int
	cols   int
	ops    vecOps    // R-specialized primitives, resolved at construction
	rows   []float64 // plain-store target: the bound output (planned) or the private replica (legacy)
	slot   []int32   // planned: row -> slot, -1 for single-writer rows; nil without shared rows
	slab   []float64 // planned: the thread's M×cols slot slab
	shared []uint64  // legacy CAS target
}

// Thread returns the write handle for thread th.
func (b *OutBuf) Thread(th int) OutBufThread {
	o := OutBufThread{b: b, th: th, cols: b.cols, ops: b.ops, shared: b.shared}
	switch {
	case b.plan != nil:
		o.rows = b.out.Data
		o.slot = b.plan.Slot
		n := len(b.plan.Shared) * b.cols
		o.slab = b.slots[th*n : (th+1)*n]
	case b.priv != nil:
		o.rows = b.priv[th].Data
	}
	return o
}

// AddScaled accumulates s*src into row `row`.
func (o *OutBufThread) AddScaled(row int, s float64, src []float64) {
	if o.slot != nil {
		if k := o.slot[row]; k >= 0 { //gate:allow bounds row index is a stored fiber id, data-dependent
			o.b.shadowSlot(o.th, row, k)
			base := int(k) * o.cols
			o.ops.addScaled(o.slab[base:base+o.cols], s, src) //gate:allow bounds slot from the plan, bounded by its shared-row count
			return
		}
	}
	if o.rows != nil {
		o.b.shadowDirect(o.th, row)
		base := row * o.cols
		o.ops.addScaled(o.rows[base:base+o.cols], s, src) //gate:allow bounds row index is a stored fiber id, data-dependent
		return
	}
	base := row * o.cols
	atomicAddScaled(o.shared[base:base+o.cols], s, src) //gate:allow bounds row index is a stored fiber id, data-dependent
}

// AddHadamard accumulates a ⊙ bv into row `row`.
func (o *OutBufThread) AddHadamard(row int, a, bv []float64) {
	if o.slot != nil {
		if k := o.slot[row]; k >= 0 { //gate:allow bounds row index is a stored fiber id, data-dependent
			o.b.shadowSlot(o.th, row, k)
			base := int(k) * o.cols
			o.ops.hadamardAccum(o.slab[base:base+o.cols], a, bv) //gate:allow bounds slot from the plan, bounded by its shared-row count
			return
		}
	}
	if o.rows != nil {
		o.b.shadowDirect(o.th, row)
		base := row * o.cols
		o.ops.hadamardAccum(o.rows[base:base+o.cols], a, bv) //gate:allow bounds row index is a stored fiber id, data-dependent
		return
	}
	base := row * o.cols
	atomicAddHadamard(o.shared[base:base+o.cols], a, bv) //gate:allow bounds row index is a stored fiber id, data-dependent
}

// AddHadamard accumulates a ⊙ bv into row `row` on behalf of thread th.
// Engines with per-call scatter (the COO baselines) use this form; the CSF
// kernels hoist a Thread handle instead.
func (b *OutBuf) AddHadamard(th, row int, a, bv []float64) {
	o := b.Thread(th)
	o.AddHadamard(row, a, bv)
}

// AddScaled accumulates s*src into row `row` on behalf of thread th.
func (b *OutBuf) AddScaled(th, row int, s float64, src []float64) {
	o := b.Thread(th)
	o.AddScaled(row, s, src)
}

// Reset readies the buffer for one kernel launch whose result Reduce will
// write into out. A planned buffer binds out as the target of its direct
// stores and zeroes it together with the slot slabs, on T threads; a
// legacy buffer zeroes its own state in full.
func (b *OutBuf) Reset(out *tensor.Matrix) {
	b.checkOut(out)
	b.shadowReset()
	if b.plan == nil {
		b.resetLegacy()
		return
	}
	b.out = out
	if b.t == 1 {
		clear(out.Data)
		clear(b.slots)
		return
	}
	par.Do(b.t, func(th int) {
		n := len(out.Data)
		clear(out.Data[th*n/b.t : (th+1)*n/b.t])
		m := len(b.slots) / b.t
		clear(b.slots[th*m : (th+1)*m])
	})
}

// checkOut panics unless out has the buffer's shape.
func (b *OutBuf) checkOut(out *tensor.Matrix) {
	if out.Rows != b.rows || out.Cols != b.cols {
		panic(fmt.Sprintf("kernels: OutBuf output %dx%d, want %dx%d", out.Rows, out.Cols, b.rows, b.cols))
	}
}

// resetLegacy zeroes a footprint-rule buffer in full, on T threads.
func (b *OutBuf) resetLegacy() {
	if b.priv != nil {
		if b.t == 1 {
			clear(b.priv[0].Data)
			return
		}
		par.Do(b.t, func(th int) { clear(b.priv[th].Data) })
		return
	}
	clear(b.shared)
}

// Reduce completes the launch into out, overwriting it, on T threads. A
// planned buffer's out must be the matrix Reset bound: its single-writer
// rows already hold their sums, and each shared row is overwritten with
// slot 0 + slot 1 + … in thread order — the order full privatization sums
// replicas in, so the result does not depend on thread timing.
func (b *OutBuf) Reduce(out *tensor.Matrix) {
	b.checkOut(out)
	if b.plan == nil {
		b.reduceLegacy(out)
		return
	}
	if out != b.out {
		panic("kernels: Reduce into a matrix other than the one Reset bound")
	}
	if len(b.plan.Shared) == 0 {
		return
	}
	par.Blocks(len(b.plan.Shared), b.t, func(_, lo, hi int) { b.reduceSlots(lo, hi) })
}

// reduceSlots overwrites the output rows of slots [lo, hi) with the sum of
// every thread's slot, in thread order.
func (b *OutBuf) reduceSlots(lo, hi int) {
	n := len(b.plan.Shared) * b.cols
	for i, r := range b.plan.Shared[lo:hi] { //gate:allow bounds slot block bounds from par.Blocks
		dst := b.out.Row(int(r)) //gate:allow bounds shared row from the plan
		base := (lo + i) * b.cols
		copy(dst, b.slots[base:base+b.cols]) //gate:allow bounds slot offset bounded by the shared-row count
		for th := 1; th < b.t; th++ {
			at := th*n + base
			b.ops.addScaled(dst, 1, b.slots[at:at+b.cols]) //gate:allow bounds slab offset bounded by the thread count
		}
	}
}

// reduceLegacy reduces a footprint-rule buffer in full. The single-threaded
// case avoids constructing the par.Blocks closure entirely (a closure
// passed to par escapes even when run inline), keeping pooled solves
// allocation-free.
func (b *OutBuf) reduceLegacy(out *tensor.Matrix) {
	if b.t == 1 {
		if b.priv != nil {
			out.CopyFrom(b.priv[0])
			return
		}
		bitsToFloats(out.Data, b.shared)
		return
	}
	if b.priv != nil {
		par.Blocks(b.rows, b.t, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dst := out.Row(i)
				copy(dst, b.priv[0].Row(i))
				for th := 1; th < b.t; th++ {
					b.ops.addScaled(dst, 1, b.priv[th].Row(i))
				}
			}
		})
		return
	}
	par.Blocks(len(b.shared), b.t, func(_, lo, hi int) {
		bitsToFloats(out.Data[lo:hi], b.shared[lo:hi])
	})
}

// bitsToFloats converts float64 bit patterns into dst.
func bitsToFloats(dst []float64, src []uint64) {
	n := min(len(dst), len(src))
	d, v := dst[:n:n], src[:n:n]
	for i := range d {
		d[i] = math.Float64frombits(v[i])
	}
}

// atomicAddScaled computes dst += s*src with CAS adds.
func atomicAddScaled(dst []uint64, s float64, src []float64) {
	n := min(len(dst), len(src))
	d, v := dst[:n:n], src[:n:n]
	for i := range d {
		atomicAddFloat(&d[i], s*v[i])
	}
}

// atomicAddHadamard computes dst += a ⊙ bv with CAS adds.
func atomicAddHadamard(dst []uint64, a, bv []float64) {
	n := min(len(dst), len(a), len(bv))
	d, x, y := dst[:n:n], a[:n:n], bv[:n:n]
	for i := range d {
		atomicAddFloat(&d[i], x[i]*y[i])
	}
}

// atomicAddFloat adds v to the float64 stored as bits in *p with a CAS
// loop. Adding zero is skipped, which matters for very sparse scatters.
func atomicAddFloat(p *uint64, v float64) {
	if v == 0 {
		return
	}
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}
