package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stef/internal/csf"
	"stef/internal/par"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// sourceFor returns the level mode u reads from under save, mirroring
// core's planner.
func sourceFor(d int, save []bool, u int) int {
	if u < d-1 {
		for l := u; l <= d-2; l++ {
			if save[l] {
				return l
			}
		}
	}
	return d - 1
}

// onesFactors returns level factors filled with 1: with the positive
// values of tensor.Random every contribution a kernel emits is then
// positive, so a non-zero replica row proves that thread wrote the row.
func onesFactors(tree *csf.Tree, rank int) []*tensor.Matrix {
	lf := make([]*tensor.Matrix, tree.Order())
	for l := range lf {
		lf[l] = tensor.NewMatrix(tree.Dim(l), rank)
		for i := range lf[l].Data {
			lf[l].Data[i] = 1
		}
	}
	return lf
}

// TestCountRowWritesInvariants checks the census against the writes the
// kernel actually makes, observed through a legacy privatized buffer: a
// row some thread writes must be attributed to that thread or marked
// shared, a row written by two threads must be marked shared, and a row
// marked untouched must stay zero everywhere.
func TestCountRowWritesInvariants(t *testing.T) {
	tt := tensor.Random([]int{9, 40, 300}, 1200, []float64{2, 1.5, 0}, 71)
	tree := csf.Build(tt, nil)
	const rank = 2
	lf := onesFactors(tree, rank)
	for _, threads := range []int{1, 2, 4, 7} {
		part := sched.NewPartition(tree, threads)
		for _, save := range memoSubsets(3) {
			partials := NewPartials(tree, rank, save)
			RootMTTKRP(tree, lf, tensor.NewMatrix(tree.Dim(0), rank), partials, part)
			for u := 1; u < 3; u++ {
				writer := CountRowWrites(tree, part, u, sourceFor(3, save, u))
				buf := NewOutBuf(tree.Dim(u), rank, threads, 1<<40)
				buf.Reset(tensor.NewMatrix(tree.Dim(u), rank))
				ModeMTTKRP(tree, lf, u, partials, buf, part)
				for r, w := range writer {
					var wrote []int
					for th := 0; th < threads; th++ {
						if buf.priv[th].At(r, 0) != 0 {
							wrote = append(wrote, th)
						}
					}
					ctx := fmt.Sprintf("T=%d save=%v u=%d row %d: census %d, kernel writers %v", threads, save, u, r, w, wrote)
					switch {
					case w == WriterNone && len(wrote) != 0:
						t.Fatal(ctx)
					case len(wrote) > 1 && w != WriterShared:
						t.Fatal(ctx)
					case len(wrote) == 1 && w != int32(wrote[0]) && w != WriterShared:
						t.Fatal(ctx)
					case threads == 1 && w != WriterNone && w != 0:
						t.Fatal(ctx)
					}
				}
			}
		}
	}
}

// TestCountRowWritesLeafHistogram pins the leaf-mode census at T=1 to the
// directly computable answer: exactly the rows holding a non-zero are
// written, all by thread 0.
func TestCountRowWritesLeafHistogram(t *testing.T) {
	tt := tensor.Random([]int{5, 7, 30}, 200, []float64{0, 0, 2}, 13)
	tree := csf.Build(tt, nil)
	part := sched.NewPartition(tree, 1)
	writer := CountRowWrites(tree, part, 2, 2)
	d := tree.Order()
	hist := make([]int64, tree.Dim(d-1))
	for _, f := range tree.FidLevel(d - 1) {
		hist[f]++
	}
	for r, w := range writer {
		if (hist[r] > 0) != (w == 0) || (hist[r] == 0) != (w == WriterNone) {
			t.Fatalf("leaf row %d: census writer %d, %d non-zeros", r, w, hist[r])
		}
	}
}

// TestPlanAccumInvariants checks the plan against its census: exactly the
// shared rows get slots, in ascending row order, every other row has no
// slot, and a plan without shared rows (always so at T=1) has no slot map.
func TestPlanAccumInvariants(t *testing.T) {
	tt := tensor.Random([]int{8, 60, 400}, 2500, []float64{2, 2, 1.5}, 99)
	tree := csf.Build(tt, nil)
	const cols = 8
	for _, threads := range []int{1, 2, 4} {
		part := sched.NewPartition(tree, threads)
		for u := 1; u < 3; u++ {
			ap := PlanAccum(tree, part, u, 2, cols)
			if ap.Rows != tree.Dim(u) || ap.Cols != cols || ap.T != threads || ap.Strategy != AccumPriv {
				t.Fatalf("T=%d u=%d: plan header %+v", threads, u, ap)
			}
			if len(ap.Shared) == 0 {
				if ap.Slot != nil {
					t.Fatalf("T=%d u=%d: slot map without shared rows", threads, u)
				}
				if threads > 1 {
					t.Fatalf("T=%d u=%d: skewed fixture has no shared rows", threads, u)
				}
				continue
			}
			writer := CountRowWrites(tree, part, u, 2)
			k := 0
			for r, w := range writer {
				if w != WriterShared {
					if ap.Slot[r] != -1 {
						t.Fatalf("T=%d u=%d: row %d (writer %d) has slot %d", threads, u, r, w, ap.Slot[r])
					}
					continue
				}
				if k >= len(ap.Shared) || ap.Shared[k] != int32(r) || ap.Slot[r] != int32(k) {
					t.Fatalf("T=%d u=%d: shared row %d is not slot %d", threads, u, r, k)
				}
				k++
			}
			if k != len(ap.Shared) {
				t.Fatalf("T=%d u=%d: %d shared rows, %d slots", threads, u, k, len(ap.Shared))
			}
		}
	}
}

// runAllModesPlanned runs every non-root mode through a planned buffer
// and checks its output against the COO reference and, bit for bit,
// against a legacy fully privatized buffer, which sums the same per-thread
// contributions in the same thread order.
func runAllModesPlanned(t *testing.T, tt *tensor.Tensor, tree *csf.Tree, part *sched.Partition, save []bool, rank int, ctx string) {
	t.Helper()
	d := tt.Order()
	factors := tensor.RandomFactors(tt.Dims, rank, 4242)
	lf := LevelFactors(factors, tree.Perm())
	partials := NewPartials(tree, rank, save)
	out0 := tensor.NewMatrix(tree.Dim(0), rank)
	RootMTTKRP(tree, lf, out0, partials, part)
	for u := 1; u < d; u++ {
		buf := NewOutBufPlanned(PlanAccum(tree, part, u, partials.SourceLevel(u), rank))
		got := tensor.NewMatrix(tree.Dim(u), rank)
		buf.Reset(got)
		ModeMTTKRP(tree, lf, u, partials, buf, part)
		buf.Reduce(got)
		want := Reference(tt, factors, tree.Perm()[u])
		relClose(t, got, want, fmt.Sprintf("%s mode(level%d)", ctx, u))

		priv := NewOutBuf(tree.Dim(u), rank, part.T, 1<<40)
		privOut := tensor.NewMatrix(tree.Dim(u), rank)
		priv.Reset(privOut)
		ModeMTTKRP(tree, lf, u, partials, priv, part)
		priv.Reduce(privOut)
		bitIdentical(t, got, privOut, fmt.Sprintf("%s mode(level%d) planned vs privatized", ctx, u))

		// Reset must return the buffer to a reusable state: a second
		// launch, into a matrix holding stale values, has to reproduce
		// the same output.
		again := tensor.NewMatrix(tree.Dim(u), rank)
		for i := range again.Data {
			again.Data[i] = math.NaN()
		}
		buf.Reset(again)
		ModeMTTKRP(tree, lf, u, partials, buf, part)
		buf.Reduce(again)
		bitIdentical(t, again, got, fmt.Sprintf("%s mode(level%d) relaunch", ctx, u))
	}
}

// bitIdentical fails unless got and want hold the same float64 bit
// patterns.
func bitIdentical(t *testing.T, got, want *tensor.Matrix, ctx string) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, want %v bit for bit", ctx, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPlannedStrategiesMatchReference drives planned buffers over skewed
// tensors at T ∈ {1, 2, 3, 8}: every output matches the COO reference and
// is bit-identical to full privatization.
func TestPlannedStrategiesMatchReference(t *testing.T) {
	cases := []struct {
		dims []int
		nnz  int
		skew []float64
	}{
		{[]int{7, 9, 11}, 400, nil},
		{[]int{3, 5, 700}, 900, []float64{3, 2, 0}}, // hot leaf boundary splits
		{[]int{2, 300, 5}, 700, []float64{0, 2, 0}}, // two root slices, shared rows
		{[]int{6, 5, 9, 8}, 500, []float64{1.5, 0, 2, 0}},
	}
	for _, cs := range cases {
		tt := tensor.Random(cs.dims, cs.nnz, cs.skew, int64(len(cs.dims))*31)
		tree := csf.Build(tt, nil)
		d := len(cs.dims)
		for _, threads := range []int{1, 2, 3, 8} {
			part := sched.NewPartition(tree, threads)
			for _, save := range memoSubsets(d) {
				ctx := fmt.Sprintf("dims=%v T=%d save=%v", cs.dims, threads, save)
				runAllModesPlanned(t, tt, tree, part, save, 4, ctx)
			}
		}
	}
}

// TestPlannedQuick property-tests planned buffers against the COO
// reference and full privatization on random skewed shapes.
func TestPlannedQuick(t *testing.T) {
	f := func(seed int64, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(8), 2 + rng.Intn(30), 2 + rng.Intn(80)}
		skew := []float64{0, []float64{0, 1.5, 2.5}[rng.Intn(3)], []float64{0, 2}[rng.Intn(2)]}
		nnz := 80 + rng.Intn(300)
		if space := dims[0] * dims[1] * dims[2]; nnz > space/2 {
			nnz = space / 2
		}
		tt := tensor.Random(dims, nnz, skew, seed)
		tree := csf.Build(tt, nil)
		part := sched.NewPartition(tree, 1+int(tRaw)%6)
		ok := true
		t.Run("", func(t *testing.T) {
			runAllModesPlanned(t, tt, tree, part, []bool{false, true, false}, 3, fmt.Sprintf("seed=%d T=%d", seed, part.T))
			ok = !t.Failed()
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// stressCensus hand-builds a census that exercises every write path at
// once: rows written by every thread (0..3), two-writer rows (4..19),
// single-writer rows (20..19+T) and an untouched tail. It returns the
// census and the rows each thread writes.
func stressCensus(threads int) ([]int32, [][]int32) {
	const rows = 48
	writer := make([]int32, rows)
	for r := range writer {
		writer[r] = WriterNone
	}
	perThread := make([][]int32, threads)
	touch := func(r, th int) {
		switch w := writer[r]; {
		case w == WriterNone:
			writer[r] = int32(th)
		case w != int32(th):
			writer[r] = WriterShared
		}
		perThread[th] = append(perThread[th], int32(r))
	}
	for r := 0; r < 4; r++ {
		for th := 0; th < threads; th++ {
			touch(r, th)
		}
	}
	for r := 4; r < 20; r++ {
		touch(r, r%threads)
		touch(r, (r+1)%threads)
	}
	for r := 20; r < 20+threads; r++ {
		touch(r, r-20)
	}
	return writer, perThread
}

// TestOutBufPlannedStress hammers the slot and direct-store paths from T
// real goroutines across repeated Reset/launch/Reduce cycles and checks the
// reduced values exactly. Run with -race this doubles as the data-race
// proof for the direct stores into the shared output.
func TestOutBufPlannedStress(t *testing.T) {
	const threads, cols, iters, launches = 8, 8, 25, 12
	writer, perThread := stressCensus(threads)
	ap := planFromCensus(len(writer), writer, cols, threads)
	if len(ap.Shared) != 20 {
		t.Fatalf("stress fixture: %d shared rows, want 20", len(ap.Shared))
	}
	src := make([]float64, cols)
	for i := range src {
		src[i] = float64(i + 1)
	}
	buf := NewOutBufPlanned(ap)
	out := tensor.NewMatrix(len(writer), cols)
	for launch := 0; launch < launches; launch++ {
		buf.Reset(out)
		par.Do(threads, func(th int) {
			o := buf.Thread(th)
			for it := 0; it < iters; it++ {
				for _, r := range perThread[th] {
					o.AddScaled(int(r), 1, src)
				}
			}
		})
		buf.Reduce(out)
		for r := range writer {
			writers := 0
			for th := 0; th < threads; th++ {
				for _, jr := range perThread[th] {
					if int(jr) == r {
						writers++
					}
				}
			}
			want := float64(writers * iters)
			for c := 0; c < cols; c++ {
				if got := out.At(r, c); got != want*src[c] {
					t.Fatalf("launch %d row %d col %d: got %g, want %g", launch, r, c, got, want*src[c])
				}
			}
		}
	}
}
