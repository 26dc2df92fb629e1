package stef_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"stef"
	"stef/internal/cpd"
	"stef/internal/csf"
	"stef/internal/dense"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

var allEngines = []string{"stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"}

// TestDecomposeRejectsZeroNorm pins that a tensor with no signal — no
// non-zeros, or only explicit zeros — is an error on every engine instead
// of a fit of 1 reported as converged.
func TestDecomposeRejectsZeroNorm(t *testing.T) {
	empty := tensor.New([]int{4, 5, 6}, 0)
	zeros := tensor.New([]int{4, 5, 6}, 3)
	for k := int32(0); k < 3; k++ {
		zeros.Append([]int32{k, k + 1, k + 2}, 0)
	}
	for _, tt := range []*tensor.Tensor{empty, zeros} {
		for _, name := range allEngines {
			res, err := stef.Decompose(tt, stef.Options{Rank: 2, MaxIters: 3, Engine: name})
			if err == nil {
				t.Fatalf("engine %q, %d non-zeros of value 0: fit %g, want an error", name, tt.NNZ(), res.FinalFit())
			}
		}
	}
}

// TestCompileRejectsNonFinite pins that NaN and ±Inf values fail at
// Compile, CompileTree and Plan with an error naming the value's
// coordinate, rather than as a Cholesky failure in the first iteration.
func TestCompileRejectsNonFinite(t *testing.T) {
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tt := tensor.Random([]int{9, 11, 13}, 300, nil, int64(i+1))
		k := 37 * (i + 1)
		tt.Vals[k] = bad
		coord := fmt.Sprint(tt.Coord(k))
		if _, err := stef.Compile(tt, stef.Options{Rank: 3}); err == nil || !strings.Contains(err.Error(), coord) {
			t.Fatalf("Compile with %g at %s: err = %v, want one naming the coordinate", bad, coord, err)
		}
		tree := csf.Build(tt, nil)
		if _, err := stef.CompileTree(tree, stef.Options{Rank: 3}); err == nil || !strings.Contains(err.Error(), coord) {
			t.Fatalf("CompileTree with %g at %s: err = %v, want one naming the coordinate", bad, coord, err)
		}
		if _, err := stef.Plan(tt, stef.Options{Rank: 3}); err == nil || !strings.Contains(err.Error(), coord) {
			t.Fatalf("Plan with %g at %s: err = %v, want one naming the coordinate", bad, coord, err)
		}
	}
}

// TestDenseUpdateThreadsBitIdentical pins that Options.Threads, which now
// also parallelises the dense factor update, leaves a solve bit-identical
// on an engine whose MTTKRP does not depend on the thread count: the
// naive engine on a tensor whose longest mode spans several update chunks.
func TestDenseUpdateThreadsBitIdentical(t *testing.T) {
	tt := tensor.Random([]int{5000, 40, 30}, 4000, nil, 6)
	var first *stef.Result
	for _, threads := range []int{1, 2, 3} {
		res, err := stef.Decompose(tt, stef.Options{Rank: 5, MaxIters: 4, Tol: -1, Engine: "naive", Threads: threads, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for i, f := range res.Fits {
			if f != first.Fits[i] {
				t.Fatalf("T=%d: fit %d = %v, T=1 gave %v", threads, i, f, first.Fits[i])
			}
		}
		for j, l := range res.Lambda {
			if l != first.Lambda[j] {
				t.Fatalf("T=%d: lambda %d = %v, T=1 gave %v", threads, j, l, first.Lambda[j])
			}
		}
		for m, f := range res.Factors {
			for i, v := range f.Data {
				if v != first.Factors[m].Data[i] {
					t.Fatalf("T=%d: factor %d entry %d = %v, T=1 gave %v", threads, m, i, v, first.Factors[m].Data[i])
				}
			}
		}
	}
}

// FuzzDecompose drives every engine over tiny tensors — order 3 or 4,
// dims up to 6, up to 20 non-zeros, values decoded from raw float64 bits so
// NaN, ±Inf, subnormals and overflow-sized values all occur. No call may
// panic. Each engine must return either an error or finite factors whose
// fits are finite and ≤ 1, and it must agree with the naive MTTKRP run in
// the same mode update order: both reject the same inputs, and accepted
// solves reach the same fits.
//
// The input encodes the tensor: byte 0 the order (bit 0) and rank (high
// nibble), then one byte per mode dim, one byte for the non-zero count,
// and per non-zero one byte per coordinate followed by eight little-endian
// value bytes. Missing bytes read as zero.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{})
	// Order 3, rank 3, dims 4×5×6, three non-zeros of 1, 2 and 3.
	f.Add(fuzzTensorBytes(0x20, []byte{3, 4, 5}, [][]byte{{0, 1, 2}, {1, 2, 3}, {3, 4, 5}}, []float64{1, 2, 3}))
	// Order 4, rank 2, with a length-1 mode and a repeated coordinate.
	f.Add(fuzzTensorBytes(0x11, []byte{5, 0, 2, 3}, [][]byte{{1, 0, 1, 2}, {1, 0, 1, 2}, {5, 0, 0, 0}}, []float64{0.5, -1.25, 4}))
	// NaN, +Inf and overflow-sized values.
	f.Add(fuzzTensorBytes(0x00, []byte{2, 2, 2}, [][]byte{{0, 0, 0}, {1, 1, 1}}, []float64{1, math.NaN()}))
	f.Add(fuzzTensorBytes(0x01, []byte{2, 2, 2, 2}, [][]byte{{0, 0, 0, 0}, {1, 1, 1, 1}}, []float64{math.Inf(1), 1}))
	f.Add(fuzzTensorBytes(0x10, []byte{2, 2, 2}, [][]byte{{0, 0, 0}, {1, 1, 1}}, []float64{1e300, -1e300}))
	f.Add(fuzzTensorBytes(0x10, []byte{2, 2, 2}, [][]byte{{0, 0, 0}, {1, 2, 1}}, []float64{1e150, 3e-150}))
	// Subnormal and all-zero values.
	f.Add(fuzzTensorBytes(0x20, []byte{1, 3, 2}, [][]byte{{0, 1, 2}, {1, 2, 0}}, []float64{5e-324, 1e-310}))
	f.Add(fuzzTensorBytes(0x00, []byte{3, 3, 3}, [][]byte{{0, 1, 2}}, []float64{0}))
	// Twenty non-zeros on a dense 3×3×3 block.
	var coords [][]byte
	var vals []float64
	for k := 0; k < 20; k++ {
		coords = append(coords, []byte{byte(k % 3), byte(k / 3 % 3), byte(k / 9)})
		vals = append(vals, float64(k%7)-2.5)
	}
	f.Add(fuzzTensorBytes(0x20, []byte{2, 2, 2}, coords, vals))

	f.Fuzz(func(t *testing.T, data []byte) {
		tt, rank := decodeFuzzTensor(data)
		opts := stef.Options{Rank: rank, MaxIters: 3, Tol: -1, Seed: 1, Threads: 2}
		for _, name := range allEngines {
			opts.Engine = name
			var res *stef.Result
			order := cpd.NaiveEngine(tt).UpdateOrder()
			c, err := stef.Compile(tt, opts)
			if err == nil {
				order = c.Engine().UpdateOrder()
				res, err = c.Decompose()
			}
			if err == nil {
				checkFinite(t, name, res)
			}
			ref, rcond, refErr := naiveFits(tt, order, opts)
			// Only well-posed solves have one right answer. Near-singular
			// normal equations (more components than the tensor supports),
			// which the Cholesky jitter regularises, amplify rounding-level
			// differences in the MTTKRP without bound.
			if rcond < 1e-6 {
				continue
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("engine %q: err = %v, naive err = %v", name, err, refErr)
			}
			if err != nil {
				continue
			}
			// Compare squared relative residuals, (1-fit)²: the fit takes a
			// square root of a difference that cancels as the fit nears 1,
			// so rounding-level disagreement there shows up as ~1e-6 in
			// the fit but stays at rounding level in its square.
			for i, fit := range res.Fits {
				if want := ref[i]; math.Abs((1-fit)*(1-fit)-(1-want)*(1-want)) > 1e-9 {
					t.Fatalf("engine %q: fits %v, naive %v", name, res.Fits, ref)
				}
			}
		}
	})
}

// naiveFits runs the naive MTTKRP in the given update order with opts'
// solve settings. It returns the fit trace and the smallest reciprocal
// condition estimate of the normal equations the solve factored (0 when
// one was not numerically positive definite).
func naiveFits(tt *tensor.Tensor, order []int, opts stef.Options) ([]float64, float64, error) {
	rcond := 1.0
	res, err := cpd.Run(tt.Dims, tt.NormFrobenius(), orderedNaive{tt, order, &rcond},
		cpd.Options{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Seed: opts.Seed})
	if err != nil {
		return nil, rcond, err
	}
	return res.Fits, rcond, nil
}

// orderedNaive is the naive COO MTTKRP in a given mode update order, the
// reference an engine's solve is compared against: ALS trajectories depend
// on the update order, so only equal orders reach equal fits. Each Compute
// lowers *rcond to the conditioning of the normal equations it feeds.
type orderedNaive struct {
	t     *tensor.Tensor
	order []int
	rcond *float64
}

func (e orderedNaive) Name() string                { return "naive" }
func (e orderedNaive) UpdateOrder() []int          { return e.order }
func (e orderedNaive) NewWorkspace() cpd.Workspace { return cpd.NaiveEngine(e.t).NewWorkspace() }
func (e orderedNaive) Compute(_ cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	mode := e.order[pos]
	out.CopyFrom(kernels.Reference(e.t, factors, mode))
	*e.rcond = math.Min(*e.rcond, normalRCond(factors, mode))
}

// normalRCond estimates the reciprocal condition number of mode's ALS
// normal equations V, the Hadamard product of the other factors' Grams:
// its smallest squared Cholesky pivot over its largest diagonal entry, or
// 0 when V is not numerically positive definite.
func normalRCond(factors []*tensor.Matrix, mode int) float64 {
	r := factors[0].Cols
	v := tensor.NewMatrix(r, r)
	dense.OnesInto(v)
	for m, f := range factors {
		if m != mode {
			dense.HadamardInto(v, dense.Gram(f, nil))
		}
	}
	l := v.Data
	maxDiag := 0.0
	for p := 0; p < r; p++ {
		maxDiag = math.Max(maxDiag, l[p*r+p])
	}
	minPivot := math.Inf(1)
	for j := 0; j < r; j++ {
		s := l[j*r+j]
		for k := 0; k < j; k++ {
			s -= l[j*r+k] * l[j*r+k]
		}
		if !(s > 0) {
			return 0
		}
		minPivot = math.Min(minPivot, s)
		d := math.Sqrt(s)
		l[j*r+j] = d
		for i := j + 1; i < r; i++ {
			t := l[i*r+j]
			for k := 0; k < j; k++ {
				t -= l[i*r+k] * l[j*r+k]
			}
			l[i*r+j] = t / d
		}
	}
	return minPivot / maxDiag
}

// checkFinite fails the fuzz case unless every factor entry, weight and fit
// of an accepted solve is finite and every fit is at most 1.
func checkFinite(t *testing.T, name string, res *stef.Result) {
	for i, fit := range res.Fits {
		if math.IsNaN(fit) || math.IsInf(fit, 0) || fit > 1 {
			t.Fatalf("engine %q: fit %d = %v", name, i, fit)
		}
	}
	for m, f := range res.Factors {
		for i, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("engine %q: factor %d entry %d = %v", name, m, i, v)
			}
		}
	}
	for p, l := range res.Lambda {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("engine %q: lambda %d = %v", name, p, l)
		}
	}
}

// decodeFuzzTensor builds FuzzDecompose's tensor and rank from its input
// bytes (the layout is documented on FuzzDecompose).
func decodeFuzzTensor(data []byte) (*tensor.Tensor, int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	head := next()
	d := 3 + int(head&1)
	rank := 1 + int(head>>4)%3
	dims := make([]int, d)
	for m := range dims {
		dims[m] = 1 + int(next())%6
	}
	nnz := int(next()) % 21
	tt := tensor.New(dims, nnz)
	coord := make([]int32, d)
	for k := 0; k < nnz; k++ {
		for m := range coord {
			coord[m] = int32(int(next()) % dims[m])
		}
		var bits uint64
		for i := 0; i < 8; i++ {
			bits |= uint64(next()) << (8 * i)
		}
		tt.Append(coord, math.Float64frombits(bits))
	}
	return tt, rank
}

// fuzzTensorBytes encodes a FuzzDecompose seed: dims are stored as dim-1
// and coordinates as given.
func fuzzTensorBytes(head byte, dimsMinus1 []byte, coords [][]byte, vals []float64) []byte {
	out := append([]byte{head}, dimsMinus1...)
	out = append(out, byte(len(coords)))
	for k, c := range coords {
		out = append(out, c...)
		bits := math.Float64bits(vals[k])
		for i := 0; i < 8; i++ {
			out = append(out, byte(bits>>(8*i)))
		}
	}
	return out
}
