//go:build shadowtrace

package kernels

import (
	"testing"

	"stef/internal/tensor"
)

// stressBuf returns a planned buffer over the stress census, Reset (which
// arms the oracle), and the first row its plan gives slots.
func stressBuf(t *testing.T, corrupt bool) (*OutBuf, int) {
	t.Helper()
	const threads, cols = 4, 3
	writer, _ := stressCensus(threads)
	ap := planFromCensus(len(writer), writer, cols, threads)
	if len(ap.Shared) == 0 {
		t.Fatal("stress fixture produced no shared row")
	}
	row := int(ap.Shared[0])
	if corrupt {
		ap.Slot[row] = -1
	}
	buf := NewOutBufPlanned(ap)
	buf.Reset(tensor.NewMatrix(ap.Rows, cols))
	return buf, row
}

// TestShadowFlagsCorruptedSlotDirect injects the bug class the accumulation
// oracle exists to catch: a row the census proved multi-writer that the plan
// nonetheless stores directly. The kernel then plain-stores it from two
// threads — a real data race — and the oracle must panic on the second
// writer. The write census cannot be wrong about this on an honest plan, so
// the corruption stands in for a future planner bug.
func TestShadowFlagsCorruptedSlotDirect(t *testing.T) {
	buf, row := stressBuf(t, true)
	src := make([]float64, buf.cols)
	defer expectShadowPanic(t)
	// Two distinct threads plain-store the corrupted row. par.Do would not
	// forward the panic to the test goroutine, so drive the handles directly.
	o0, o1 := buf.Thread(0), buf.Thread(1)
	o0.AddScaled(row, 1, src)
	o1.AddScaled(row, 1, src)
}

// TestShadowFlagsSlotMismatch exercises the oracle's slot check: a slot
// store for a row through a slot the plan does not assign it must panic.
func TestShadowFlagsSlotMismatch(t *testing.T) {
	buf, row := stressBuf(t, false)
	defer expectShadowPanic(t)
	buf.shadowSlot(0, row, buf.plan.Slot[row]+1)
}

// TestShadowFlagsDirectClaimOnSlotRow exercises the oracle's classification
// check: a direct store to a row the plan gives slots must panic even from
// a single thread.
func TestShadowFlagsDirectClaimOnSlotRow(t *testing.T) {
	buf, row := stressBuf(t, false)
	defer expectShadowPanic(t)
	buf.shadowDirect(0, row)
}

// TestShadowDisarmedOnLegacyBuffer pins that legacy (unplanned) buffers never
// arm the accumulation oracle: the hooks are no-ops, not panics.
func TestShadowDisarmedOnLegacyBuffer(t *testing.T) {
	buf := NewOutBuf(8, 3, 2, 1<<20)
	buf.Reset(tensor.NewMatrix(8, 3))
	buf.shadowSlot(0, 0, 0)
	buf.shadowDirect(0, 0)
}
