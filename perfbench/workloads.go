package main

import (
	"fmt"
	"os"
	"path/filepath"

	"stef"
	"stef/internal/tensor"
)

// Every workload decomposes at this rank and convergence tolerance; only
// the iteration cap differs. None of the generated tensors converges to
// the tolerance within its cap, so the iteration count is the cap on every
// seed and time-to-fit compares like with like across seeds and commits.
const (
	rank = 32
	tol  = 1e-5
)

// A workload is one tensor shape plus the way it is solved. The three
// workloads split the time of a CPD-ALS solve between the layers that own
// it; WORKLOADS.md records the measured shares and which metric each
// workload predicts should not move.
type workload struct {
	name    string
	profile string // tensor.ProfileByName: dims and per-mode skew
	nnz     int
	// threads is the worker count of each solve; restarts solves run
	// concurrently, so threads*restarts threads run in total (at most 2).
	threads  int
	restarts int
	// arena packs the CSF into an arena file before timing starts; each
	// operation then opens it (stef.OpenArena + stef.CompileTree) instead
	// of building from COO (stef.Compile).
	arena    bool
	maxIters int
	// dimScale divides every mode length (at least 2 remain); the
	// benchmark's own tests use it to run a workload at a tiny size.
	dimScale int
}

var workloads = []workload{
	// Compile once, solve many: two restarts share one arena-opened plan
	// at T=1 each. MTTKRP (priv accumulation, no memoization, an
	// LLC-resident working set) is nearly all of the solve; setup skips
	// the CSF build and the swap search.
	{name: "nell2-restarts", profile: "nell-2", nnz: 1_000_000, threads: 1, restarts: 2, arena: true, maxIters: 10},
	// Order-5 skewed tensor built from COO at T=2: the model swaps the
	// last two modes, memoizes two levels and picks hybrid accumulation
	// on level 1; Alg. 3 balances a 2-slice root. CSF build plus model
	// search dominate setup.
	{name: "vast5d-skewed", profile: "vast-2015-mc1-5d", nnz: 450_000, threads: 2, restarts: 1, maxIters: 10},
	// Hypersparse tensor with two 230K-long modes: factors and MTTKRP
	// outputs exceed the LLC, and the dense update (Gram, Cholesky solve,
	// normalize) is ~90% of each iteration while MTTKRP is ~10%.
	{name: "freebase-hypersparse", profile: "freebase_music", nnz: 250_000, threads: 2, restarts: 1, maxIters: 3},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// options are the stef options of one solve at the given thread count.
func (w workload) options(threads int, seed int64) stef.Options {
	return stef.Options{Rank: rank, MaxIters: w.maxIters, Tol: tol, Threads: threads, Seed: seed}
}

// inputs are a workload's generated tensor and, for arena workloads, the
// arena it was packed into. Both exist before any timing starts.
type inputs struct {
	w     workload
	seed  int64
	t     *tensor.Tensor
	normX float64
	arena string // "" unless w.arena
}

// prepare generates the workload's non-zeros from seed with the profile's
// dims and skew, and packs the arena into dir when the workload opens one.
func prepare(w workload, seed int64, dir string) (*inputs, error) {
	p, err := tensor.ProfileByName(w.profile)
	if err != nil {
		return nil, err
	}
	dims := append([]int(nil), p.Dims...)
	if w.dimScale > 1 {
		for m := range dims {
			dims[m] = max(2, dims[m]/w.dimScale)
		}
	}
	t := tensor.Random(dims, w.nnz, p.Skew, seed)
	in := &inputs{w: w, seed: seed, t: t, normX: t.NormFrobenius()}
	if w.arena {
		in.arena = filepath.Join(dir, fmt.Sprintf("%s-%d.stef", w.name, seed))
		if err := stef.SaveArena(t, in.arena); err != nil {
			return nil, fmt.Errorf("packing arena: %w", err)
		}
	}
	return in, nil
}

// cleanup removes the arena file, if any.
func (in *inputs) cleanup() {
	if in.arena != "" {
		os.Remove(in.arena)
	}
}
