// Package wdfix seeds write-disjoint violations: stores reachable from
// par.Do / par.Blocks callbacks — directly, through captured aliases, or
// through helper calls several frames deep — whose target is shared memory
// and whose index is not derived from the thread id or partition bounds.
// The safe variants next to each violation pin down the analyzer's
// precision: thread-indexed slots, partition-bounded loops, disjoint
// row views, and per-thread scratch must stay silent.
package wdfix

import "stef/internal/par"

// runT forwards its callback to par.Do; the analyzer must discover this
// from the callgraph, not from a name list.
func runT(t int, fn func(th int)) { par.Do(t, fn) }

// poke is the bottom of a two-call-deep store chain.
func poke(dst []float64, i int) {
	dst[i] = 1 // want "index not derived from thread id or partition bounds"
}

// stash forwards to poke; callers with an underived index are violations.
func stash(dst []float64, i int) { poke(dst, i) }

// fill stores through its own parameters; safe when the caller passes a
// thread-derived index.
func fill(dst []float64, i int, v float64) { dst[i] = v }

type mat struct {
	data   []float64
	stride int
}

func (m *mat) row(i int) []float64 { return m.data[i*m.stride : (i+1)*m.stride] }

func direct(t int, out []float64, counts map[string]int) {
	total := 0.0
	par.Do(t, func(th int) {
		total += float64(th) // want "store to shared memory inside parallel callback"
		out[th] = 1
		out[0] = 1 // want "index not derived from thread id or partition bounds"
		alias := out
		alias[2] = 1        // want "index not derived from thread id or partition bounds"
		counts["hits"] = th // want "store to shared map inside parallel callback"
		local := make([]float64, 4)
		local[0] = 1 // ok: freshly allocated, private to this callback
		_ = local
	})
	_ = total
}

func loopCapture(t, n int, out []float64) {
	for i := 0; i < n; i++ {
		i := i
		par.Do(t, func(th int) {
			out[i] = float64(th) // want "index not derived from thread id or partition bounds"
		})
	}
}

func twoDeep(t, k int, out []float64) {
	par.Do(t, func(th int) {
		stash(out, th) // ok: index is the thread id, two calls down
		stash(out, k)  // the violation reports at poke's store site
		fill(out, th, 2)
	})
}

func rowViews(t, j int, m *mat, v []float64) {
	par.Do(t, func(th int) {
		copy(m.row(th), v) // ok: row view offset derived from thread id
		m.row(j)[0] = 1    // want "index not derived from thread id or partition bounds"
	})
}

func wrapped(t int, out []float64) {
	runT(t, func(th int) {
		out[5] = float64(th) // want "index not derived from thread id or partition bounds"
	})
}

func blocks(n, t int, out []float64, bounds []int) {
	par.Blocks(n, t, func(th, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i) // ok: index derived from block bounds
		}
		blk := out[lo:hi]
		blk[0] = 1 // ok: store inside a thread-disjoint window
	})
	par.Do(t, func(th int) {
		lo, hi := bounds[th], bounds[th+1]
		for i := lo; i < hi; i++ {
			out[i] = 0 // ok: index derived from partition bounds
		}
	})
}

func escaped(t int, out []float64) {
	par.Do(t, func(th int) {
		//lint:allow write-disjoint single-threaded by construction in this test
		out[0] = float64(th)
	})
}
