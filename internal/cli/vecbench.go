package cli

import (
	"fmt"
	"io"
	"time"

	"stef/internal/core"
	"stef/internal/experiments"
	"stef/internal/kernels"
	"stef/internal/tensor"
)

// VecBenchRow is one (tensor, rank, threads) cell of the vectorization
// benchmark: the full MTTKRP iteration (root pass plus every non-root
// mode's Reset/kernel/Reduce) timed with the generic any-length rank
// primitives and again with the R-blocked specializations, min over reps.
// Speedup is Scalar/Blocked; ranks without a specialization run the same
// code twice and report ~1.
type VecBenchRow struct {
	Tensor  string `json:"tensor"`
	Rank    int    `json:"rank"`
	Threads int    `json:"threads"`
	// Blocked reports whether a specialization exists for this rank (the
	// dispatch falls back to the generic set otherwise).
	HasBlocked bool          `json:"has_blocked"`
	Scalar     time.Duration `json:"scalar_ns"`
	Blocked    time.Duration `json:"blocked_ns"`
	Speedup    float64       `json:"speedup"`
}

// vecBench sweeps the scalar-versus-R-blocked axis over every (tensor,
// rank, threads) point. Workspaces are rebuilt per variant because the
// primitive set is chosen at Scratch/OutBuf construction time.
func vecBench(s *experiments.Suite, ranks, threadList []int, reps int, out io.Writer) ([]VecBenchRow, error) {
	fmt.Fprintf(out, "\n== vecbench: generic vs R-blocked rank primitives (reps=%d, min taken) ==\n", reps)
	fmt.Fprintf(out, "%-18s %4s %2s %12s %12s %8s\n", "tensor", "R", "T", "scalar", "blocked", "speedup")
	var rows []VecBenchRow
	err := forEachBenchCell(s, ranks, threadList, func(c benchCell) error {
		row, err := vecBenchCell(c.Tensor, c.Name, c.Rank, c.Threads, reps, s.Opts.CacheBytes)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		fmt.Fprintf(out, "%-18s %4d %2d %12s %12s %7.2fx\n", c.Name, c.Rank, c.Threads,
			row.Scalar.Round(time.Microsecond), row.Blocked.Round(time.Microsecond), row.Speedup)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// vecBenchCell times one full MTTKRP iteration under both primitive sets.
// The plan, factors and partials layout are shared; only the workspaces
// (whose construction snapshots kernels.BlockedVec) differ.
func vecBenchCell(tt *tensor.Tensor, name string, rank, threads, reps int, cacheBytes int64) (VecBenchRow, error) {
	plan, err := core.NewPlan(tt, core.Options{Rank: rank, Threads: threads, CacheBytes: cacheBytes})
	if err != nil {
		return VecBenchRow{}, err
	}
	tree := plan.Tree
	d := tree.Order()
	factors := tensor.RandomFactors(tt.Dims, rank, 7)
	lf := make([]*tensor.Matrix, d)
	kernels.LevelFactorsInto(lf, factors, tree.Perm())

	run := func(blocked bool) time.Duration {
		defer func(old bool) { kernels.BlockedVec = old }(kernels.BlockedVec)
		kernels.BlockedVec = blocked
		partials := kernels.NewPartials(tree, rank, plan.Config.Save)
		scratch := kernels.NewScratch(d, rank, threads)
		rootOut := tensor.NewMatrix(tree.Dim(0), rank)
		bufs := make([]*kernels.OutBuf, d)
		outs := make([]*tensor.Matrix, d)
		for u := 1; u < d; u++ {
			bufs[u] = kernels.NewOutBufPlanned(plan.Accum[u])
			outs[u] = tensor.NewMatrix(tree.Dim(u), rank)
		}
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			kernels.RootMTTKRPWith(tree, lf, rootOut, partials, plan.Part, scratch)
			for u := 1; u < d; u++ {
				bufs[u].Reset()
				kernels.ModeMTTKRPWith(tree, lf, u, partials, bufs[u], plan.Part, scratch)
				bufs[u].Reduce(outs[u])
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}

	row := VecBenchRow{
		Tensor:     name,
		Rank:       rank,
		Threads:    threads,
		HasBlocked: kernels.HasBlockedOps(rank),
		Scalar:     run(false),
		Blocked:    run(true),
	}
	if row.Blocked > 0 {
		row.Speedup = float64(row.Scalar) / float64(row.Blocked)
	}
	return row, nil
}
