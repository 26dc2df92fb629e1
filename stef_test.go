package stef_test

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"stef"
	"stef/internal/frostt"
	"stef/internal/tensor"
)

func TestDecomposeDefaultEngine(t *testing.T) {
	tt := tensor.Random([]int{12, 15, 18}, 800, nil, 4)
	res, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 6, Tol: -1, Threads: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 6 {
		t.Fatalf("ran %d iterations, want 6", res.Iters)
	}
	if math.IsNaN(res.FinalFit()) || res.FinalFit() <= 0 {
		t.Fatalf("bad final fit %g", res.FinalFit())
	}
	for m, f := range res.Factors {
		if f.Rows != tt.Dims[m] || f.Cols != 4 {
			t.Fatalf("factor %d shape %dx%d", m, f.Rows, f.Cols)
		}
	}
}

func TestDecomposeEveryEngineName(t *testing.T) {
	tt := tensor.Random([]int{8, 10, 12}, 400, nil, 2)
	for _, name := range []string{"", "stef", "stef2", "splatt-1", "splatt-2", "splatt-all", "adatm", "alto", "taco", "hicoo", "dtree", "naive"} {
		res, err := stef.Decompose(tt, stef.Options{Rank: 3, MaxIters: 3, Tol: -1, Engine: name, Threads: 2})
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if len(res.Fits) != 3 {
			t.Fatalf("engine %q: %d fits", name, len(res.Fits))
		}
	}
	if _, err := stef.Decompose(tt, stef.Options{Engine: "bogus"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range []string{"bogus", "naive"} {
		if _, err := stef.Plan(tt, stef.Options{Engine: name}); err == nil {
			t.Fatalf("Plan accepted engine %q, which has no STeF plan", name)
		}
	}
}

// TestDecomposeWithReorder verifies that reordering is transparent: the
// returned factors live in the original index space and the fit matches a
// plain run to within ALS-trajectory noise.
func TestDecomposeWithReorder(t *testing.T) {
	tt := tensor.Random([]int{10, 12, 14}, 700, []float64{1.5, 0, 0}, 6)
	plain, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 8, Tol: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"lexi", "bfsmcs"} {
		re, err := stef.Decompose(tt, stef.Options{Rank: 4, MaxIters: 8, Tol: -1, Seed: 5, Reorder: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if math.Abs(re.FinalFit()-plain.FinalFit()) > 0.05 {
			t.Errorf("%s: fit %.4f vs plain %.4f", mode, re.FinalFit(), plain.FinalFit())
		}
		for m, f := range re.Factors {
			if f.Rows != tt.Dims[m] {
				t.Fatalf("%s: factor %d has %d rows, want %d", mode, m, f.Rows, tt.Dims[m])
			}
		}
	}
	if _, err := stef.Decompose(tt, stef.Options{Reorder: "bogus"}); err == nil {
		t.Fatal("unknown reordering accepted")
	}
	if _, err := stef.Plan(tt, stef.Options{Reorder: "bogus"}); err == nil {
		t.Fatal("Plan accepted an unknown reordering")
	}
}

func TestPlanFacade(t *testing.T) {
	tt := tensor.Random([]int{6, 30, 50}, 900, nil, 3)
	plan, err := stef.Plan(tt, stef.Options{Rank: 8, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tree == nil || len(plan.Config.Save) != 3 {
		t.Fatal("incomplete plan")
	}
	// Plan reorders like Compile, so it plans the tensor Compile executes:
	// the reordered trees agree and differ from the unreordered one.
	for _, opts := range []stef.Options{{Rank: 8, Reorder: "lexi"}, {Rank: 8, Engine: "stef2", Reorder: "bfsmcs"}} {
		got, err := stef.Plan(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		c, err := stef.Compile(tt, opts)
		if err != nil {
			t.Fatal(err)
		}
		leaf := tt.Order() - 1
		if !slices.Equal(got.Tree.FidLevel(leaf), c.Plan().Tree.FidLevel(leaf)) {
			t.Fatalf("%+v: Plan's leaf fiber ids differ from Compile's", opts)
		}
		if slices.Equal(got.Tree.FidLevel(leaf), plan.Tree.FidLevel(leaf)) {
			t.Fatalf("%+v: Plan's leaf fiber ids match the unreordered plan", opts)
		}
	}
}

func TestDecomposeBest(t *testing.T) {
	tt := tensor.Random([]int{10, 12, 14}, 500, nil, 8)
	single, err := stef.Decompose(tt, stef.Options{Rank: 3, MaxIters: 6, Tol: -1, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	best, err := stef.DecomposeBest(tt, stef.Options{Rank: 3, MaxIters: 6, Tol: -1, Seed: 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.FinalFit() < single.FinalFit()-1e-12 {
		t.Fatalf("best-of-3 fit %.6f below single-run fit %.6f", best.FinalFit(), single.FinalFit())
	}
	if _, err := stef.DecomposeBest(tt, stef.Options{Rank: 2, MaxIters: 1, Tol: -1}, 0); err != nil {
		t.Fatalf("restarts=0 should clamp to 1: %v", err)
	}
}

func TestLoadTensorAndBenchmark(t *testing.T) {
	tt, err := stef.Benchmark("uber")
	if err != nil {
		t.Fatal(err)
	}
	if tt.Order() != 4 {
		t.Fatalf("uber order %d", tt.Order())
	}
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := frostt.WriteFile(path, tt); err != nil {
		t.Fatal(err)
	}
	back, err := stef.LoadTensor(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != tt.NNZ() {
		t.Fatalf("round trip nnz %d, want %d", back.NNZ(), tt.NNZ())
	}
	if _, err := stef.Benchmark("bogus"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestSolveReproducibleAcrossRuns pins the accumulation determinism
// contract: a multi-threaded STeF or STeF2 solve sums every shared output
// row in thread order, so repeating it reproduces factors, weights and
// fits bit for bit. The skewed tensor gives both engines rows that several
// threads write at T=2 and T=4.
func TestSolveReproducibleAcrossRuns(t *testing.T) {
	tt := tensor.Random([]int{20, 100, 800}, 3000, []float64{2, 2, 1.5}, 5)
	for _, engine := range []string{"stef", "stef2"} {
		for _, threads := range []int{2, 4} {
			c, err := stef.Compile(tt, stef.Options{Rank: 8, MaxIters: 8, Tol: -1, Threads: threads, Engine: engine, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			shared := 0
			for _, ap := range c.Plan().Accum {
				if ap != nil {
					shared += len(ap.Shared)
				}
			}
			if shared == 0 {
				t.Fatalf("%s T=%d: fixture has no multi-writer output rows", engine, threads)
			}
			first, err := c.Decompose()
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run < 6; run++ {
				res, err := c.Decompose()
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("%s T=%d run %d", engine, threads, run)
				sameBits(t, res.Fits, first.Fits, ctx+" fits")
				sameBits(t, res.Lambda, first.Lambda, ctx+" lambda")
				for m, f := range res.Factors {
					sameBits(t, f.Data, first.Factors[m].Data, fmt.Sprintf("%s factor %d", ctx, m))
				}
			}
		}
	}
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", ctx, i, got[i], want[i])
		}
	}
}
