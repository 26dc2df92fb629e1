package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"stef/internal/csf"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// refOps are the plainest possible loops: the semantic ground truth both
// the unrolled generic primitives and the R-blocked specializations must
// reproduce bit for bit (every element is one independent multiply-add, so
// no reassociation can change the rounding).
func refZero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

func refAddScaled(dst []float64, s float64, src []float64) {
	for i := range dst {
		dst[i] += s * src[i]
	}
}

func refHadamardAccum(dst, a, b []float64) {
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

func refHadamardInto(dst, a, b []float64) {
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// randVec fills a length-n vector with normal variates.
func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestBlockedBitIdenticalToScalar pins every R-blocked specialization
// bit-identical to the scalar reference at its width, for R ∈ {8,16,32,64}.
// R=8 has no specialization: the dispatch must fall back to the generic
// set, which is held to the same bit-identity standard.
func TestBlockedBitIdenticalToScalar(t *testing.T) {
	for _, r := range []int{8, 16, 32, 64} {
		ops, ok := vecOpsFor(r)
		if r == 8 {
			if ok {
				t.Fatalf("R=8 unexpectedly has a specialization; update this test's dispatch expectations")
			}
			ops = genericVecOps
		} else if !ok {
			t.Fatalf("R=%d has no specialization", r)
		}
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
			s := rng.NormFloat64()
			dst := randVec(rng, r)
			a := randVec(rng, r)
			b := randVec(rng, r)

			got := append([]float64(nil), dst...)
			want := append([]float64(nil), dst...)
			ops.addScaled(got, s, a)
			refAddScaled(want, s, a)
			ctx := fmt.Sprintf("R=%d seed=%d", r, seed)
			bitEqual(t, got, want, ctx+" addScaled")

			ops.hadamardAccum(got, a, b)
			refHadamardAccum(want, a, b)
			bitEqual(t, got, want, ctx+" hadamardAccum")

			ops.hadamardInto(got, a, b)
			refHadamardInto(want, a, b)
			bitEqual(t, got, want, ctx+" hadamardInto")

			ops.zero(got)
			refZero(want)
			bitEqual(t, got, want, ctx+" zero")
		}
	}
}

// TestBlockedTouchesExactlyR verifies the specializations' contract: on a
// longer backing slice they read and write exactly the first R elements,
// matching the generic first-min(len) behaviour for equal-length rank
// vectors while never straying into adjacent memory.
func TestBlockedTouchesExactlyR(t *testing.T) {
	const pad = 5
	for _, r := range []int{16, 32, 64} {
		ops, ok := vecOpsFor(r)
		if !ok {
			t.Fatalf("R=%d has no specialization", r)
		}
		rng := rand.New(rand.NewSource(int64(r)))
		dst := randVec(rng, r+pad)
		a := randVec(rng, r+pad)
		b := randVec(rng, r+pad)
		s := rng.NormFloat64()

		got := append([]float64(nil), dst...)
		want := append([]float64(nil), dst...)
		ops.addScaled(got, s, a)
		refAddScaled(want[:r], s, a[:r])
		bitEqual(t, got, want, fmt.Sprintf("R=%d padded addScaled", r))

		ops.hadamardAccum(got, a, b)
		refHadamardAccum(want[:r], a[:r], b[:r])
		bitEqual(t, got, want, fmt.Sprintf("R=%d padded hadamardAccum", r))

		ops.zero(got)
		refZero(want[:r])
		bitEqual(t, got, want, fmt.Sprintf("R=%d padded zero", r))
	}
}

// TestGenericUnalignedLengths holds the generic fallback to the reference
// at short and unaligned lengths (the ranks opsFor sends to it).
func TestGenericUnalignedLengths(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7, 9, 13, 31, 63, 65} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := rng.NormFloat64()
		dst := randVec(rng, n)
		a := randVec(rng, n)
		b := randVec(rng, n)

		got := append([]float64(nil), dst...)
		want := append([]float64(nil), dst...)
		addScaled(got, s, a)
		refAddScaled(want, s, a)
		bitEqual(t, got, want, fmt.Sprintf("n=%d addScaled", n))

		hadamardAccum(got, a, b)
		refHadamardAccum(want, a, b)
		bitEqual(t, got, want, fmt.Sprintf("n=%d hadamardAccum", n))

		hadamardInto(got, a, b)
		refHadamardInto(want, a, b)
		bitEqual(t, got, want, fmt.Sprintf("n=%d hadamardInto", n))
	}
}

func bitEqual(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %x, want %x", ctx, i, got[i], want[i])
		}
	}
}

// TestOpsForDispatch pins the construction-time dispatch: blocked ranks
// get their specialization, everything else gets the generic set.
func TestOpsForDispatch(t *testing.T) {
	for _, r := range []int{16, 32, 64} {
		want, ok := vecOpsFor(r)
		if !ok {
			t.Fatalf("R=%d has no specialization", r)
		}
		if got := opsFor(r); fmt.Sprintf("%p", got.addScaled) != fmt.Sprintf("%p", want.addScaled) {
			t.Errorf("opsFor(%d) did not select the specialization", r)
		}
	}
	for _, r := range []int{1, 8, 17, 33, 128} {
		if got := opsFor(r); fmt.Sprintf("%p", got.addScaled) != fmt.Sprintf("%p", genericVecOps.addScaled) {
			t.Errorf("opsFor(%d) did not fall back to the generic set", r)
		}
	}
}

// TestBlockedEndToEndBitIdentical runs full root- and non-root MTTKRPs at a
// blocked rank with both primitive sets — vecOpsFor(rank) and
// genericVecOps, installed directly on the Scratch and OutBuf — and
// requires bit-identical output:
// the specializations perform exactly the same multiply-adds in exactly the
// same order as the generic loops, so even parallel runs (deterministic
// per-thread ranges, deterministic reduction order) must agree to the last
// bit. Running under -race (scripts/check.sh does) also exercises the
// dispatch and rebind paths for data races.
func TestBlockedEndToEndBitIdentical(t *testing.T) {
	for _, rank := range []int{16, 32} {
		tt := tensor.Random([]int{6, 9, 11, 7}, 500, nil, int64(rank))
		tree := csf.Build(tt, nil)
		part := sched.NewPartition(tree, 4)
		save := []bool{false, true, true, false}
		factors := tensor.RandomFactors(tt.Dims, rank, 777)
		lf := LevelFactors(factors, tree.Perm())

		blockedOps, ok := vecOpsFor(rank)
		if !ok {
			t.Fatalf("R=%d has no specialization", rank)
		}
		run := func(ops vecOps) []*tensor.Matrix {
			partials := NewPartials(tree, rank, save)
			sc := NewScratch(tt.Order(), rank, part.T)
			sc.ops = ops
			var outs []*tensor.Matrix
			out0 := tensor.NewMatrix(tree.Dim(0), rank)
			RootMTTKRPWith(tree, lf, out0, partials, part, sc)
			outs = append(outs, out0)
			for u := 1; u < tt.Order(); u++ {
				buf := NewOutBuf(tree.Dim(u), rank, part.T, 0)
				buf.ops = ops
				got := tensor.NewMatrix(tree.Dim(u), rank)
				buf.Reset(got)
				ModeMTTKRPWith(tree, lf, u, partials, buf, part, sc)
				buf.Reduce(got)
				outs = append(outs, got)
			}
			return outs
		}

		blocked := run(blockedOps)
		scalar := run(genericVecOps)

		for u := range blocked {
			bitEqual(t, blocked[u].Data, scalar[u].Data, fmt.Sprintf("rank=%d mode(level%d)", rank, u))
		}
	}
}
