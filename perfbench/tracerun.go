package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"stef"
	"stef/internal/cpd"
	"stef/internal/dense"
	"stef/internal/tensor"
)

// maxLevels is the highest tensor order among the workloads; per-level
// kernel metrics are printed for levels 0..maxLevels-1 on every workload,
// as 0 on levels a lower-order tensor does not have.
const maxLevels = 5

// tracedTimes is one traced operation: its end-to-end timings, the plan's
// decisions, the GC cycles it took and its spans.
type tracedTimes struct {
	op    opTimes
	plan  planStats
	gc    int
	spans []span
}

// traced alternates untraced and traced operations for cfg.seconds, then
// makes the one-off layer measurements (steady-state allocations, the
// single-thread and splatt-all baselines, standalone dense calls), and
// reports every per-layer metric. Spans are written to cfg.out when the
// run ends.
func traced(w io.Writer, in *inputs, cfg config, tl *tally) (map[string]metric, planStats, error) {
	tr := newTracer()
	var plain []opTimes
	var ops []*tracedTimes
	start := time.Now()
	for len(ops) == 0 || time.Since(start).Seconds() < cfg.seconds {
		resetPeakRSS()
		op, _, err := untracedOp(in)
		tl.add("time-to-fit", err)
		if op != nil {
			plain = append(plain, *op)
		}
		resetPeakRSS()
		tt, err := tracedOp(in, tr, len(ops)+1)
		tl.add("traced time-to-fit", err)
		if tt != nil {
			ops = append(ops, tt)
		} else if time.Since(start).Seconds() >= cfg.seconds {
			return nil, planStats{}, fmt.Errorf("no traced operation completed: %w", err)
		}
	}
	if len(plain) == 0 {
		return nil, planStats{}, fmt.Errorf("no untraced operation completed")
	}

	m := map[string]metric{}
	perOp := func(name, unit string, f func(*tracedTimes) float64) {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		m[name] = metric{median(xs), unit}
	}
	ps := ops[len(ops)-1].plan
	solves := float64(in.w.restarts)
	perOp("csf.open_ms", "ms", func(o *tracedTimes) float64 { return ms(layerTotal(o.spans, "csf", "OpenArena")) })
	perOp("core.plan_ms", "ms", func(o *tracedTimes) float64 { return ms(layerTotal(o.spans, "core", "NewPlan")) })
	perOp("csf.build_ms", "ms", func(o *tracedTimes) float64 { return ms(o.plan.build) })
	perOp("model.preprocess_ms", "ms", func(o *tracedTimes) float64 { return ms(o.plan.preprocess) })
	perOp("cpd.acquire_ms", "ms", func(o *tracedTimes) float64 { return firstAcquireMS(o.spans) })
	perOp("runtime.gc_cycles", "count", func(o *tracedTimes) float64 { return float64(o.gc) })
	perOp("cpd.iters", "count", func(o *tracedTimes) float64 { return float64(o.op.iters) })
	// Per-iteration layer times are per solve: restarts run concurrently,
	// so their summed time is divided by solves × iterations.
	perIter := func(o *tracedTimes, d time.Duration) float64 { return ms(d) / (solves * float64(o.op.iters)) }
	perOp("kernels.mttkrp_ms", "ms", func(o *tracedTimes) float64 { return perIter(o, layerTotal(o.spans, "kernels", "")) })
	for l := 0; l < maxLevels; l++ {
		name := fmt.Sprintf("Engine.Compute/l%d", l)
		perOp(fmt.Sprintf("kernels.l%d_ms", l), "ms", func(o *tracedTimes) float64 { return perIter(o, layerTotal(o.spans, "kernels", name)) })
	}
	// The cpd layer's self time less its Acquire calls, which are not part
	// of an iteration, is the RunWith spans minus their Compute children:
	// the dense update and the fit.
	perOp("cpd.self_ms", "ms", func(o *tracedTimes) float64 {
		return perIter(o, layerSelf(o.spans)["cpd"]-layerTotal(o.spans, "cpd", "Solver.Acquire"))
	})
	perOp("kernels.share", "ratio", func(o *tracedTimes) float64 {
		return float64(layerTotal(o.spans, "kernels", "")) / float64(layerTotal(o.spans, "cpd", "RunWith"))
	})
	// Computed traffic of one iteration: each of the d MTTKRPs reads the
	// CSF and the d-1 other factors and writes its own output once.
	perOp("kernels.gbps_computed", "GB/s", func(o *tracedTimes) float64 {
		d := float64(in.t.Order())
		bytes := d * float64(o.plan.csfBytes+o.plan.factorBytes)
		return bytes / 1e9 / (perIter(o, layerTotal(o.spans, "kernels", "")) / 1e3)
	})

	m["csf.bytes"] = metric{float64(ps.csfBytes), "bytes"}
	m["csf.fibers"] = metric{float64(ps.csfFibers), "count"}
	m["csf.nnz"] = metric{float64(ps.csfNNZ), "count"}
	m["core.working_set_mb"] = metric{float64(ps.workingSet()) / 1e6, "MB"}
	m["model.memo_levels"] = metric{float64(ps.memoLevels), "count"}
	swap := 0.0
	if ps.swap {
		swap = 1
	}
	m["model.swap"] = metric{swap, "bool"}
	m["model.memo_mb"] = metric{float64(ps.memoBytes) / 1e6, "MB"}
	m["model.modeled_cost"] = metric{float64(ps.modeledCost), "elems_modeled"}
	m["kernels.accum_priv_levels"] = metric{float64(ps.priv), "count"}
	m["kernels.accum_hybrid_levels"] = metric{float64(ps.hybrid), "count"}
	m["kernels.accum_atomic_levels"] = metric{float64(ps.atomic), "count"}

	plainTTF, tracedTTF := make([]float64, len(plain)), make([]float64, len(ops))
	plainIter := make([]float64, len(plain))
	for i, o := range plain {
		plainTTF[i], plainIter[i] = o.ttf.Seconds(), o.iterMS()
	}
	for i, o := range ops {
		tracedTTF[i] = o.op.ttf.Seconds()
	}
	iterMS := median(plainIter)
	m["trace.overhead_pct"] = metric{(median(tracedTTF)/median(plainTTF) - 1) * 100, "%"}

	allocs, stefIter, err := steadyAllocs(in)
	tl.add("steady-state solves", err)
	m["cpd.steady_allocs"] = metric{float64(allocs), "count"}
	t1, err := singleThread(in)
	tl.add("single-thread solves", err)
	m["par.t1_iter_ms"] = metric{t1, "ms"}
	m["par.speedup"] = metric{t1 / iterMS, "x"}
	splatt, err := splattAll(in)
	tl.add("splatt-all solve", err)
	m["baselines.splatt_all_iter_ms"] = metric{splatt, "ms"}
	m["baselines.stef_over_splatt_all"] = metric{splatt / stefIter, "x"}
	gram, solve, norm, gflops := denseStandalone(in)
	m["dense.gram_ms"] = metric{gram, "ms"}
	m["dense.solve_ms"] = metric{solve, "ms"}
	m["dense.normalize_ms"] = metric{norm, "ms"}
	m["dense.gflops_computed"] = metric{gflops, "GFLOP/s"}

	for i, o := range ops {
		fmt.Fprintf(w, "layer_self run=%d %s\n", i+1, formatLayers(layerSelf(o.spans)))
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", in.w.name, in.seed))
	if err := tr.write(path); err != nil {
		return nil, ps, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans %s\n", path)
	return m, ps, nil
}

// layerTotal is the summed duration of the spans of layer whose name
// starts with prefix.
func layerTotal(spans []span, layer, prefix string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Layer == layer && strings.HasPrefix(s.Name, prefix) {
			d += s.dur()
		}
	}
	return d
}

// firstAcquireMS is the duration of the operation's first Solver.Acquire:
// the cold one, which allocates the workspace.
func firstAcquireMS(spans []span) float64 {
	first := span{Start: -1}
	for _, s := range spans {
		if s.Name == "Solver.Acquire" && (first.Start < 0 || s.Start < first.Start) {
			first = s
		}
	}
	return ms(first.dur())
}

// steadyAllocs runs two solves of the workload on one pooled workspace and
// counts the heap allocations of the second. It also returns the second
// solve's per-iteration time: one solve at the workload's thread count,
// the stef side of the splatt-all comparison.
func steadyAllocs(in *inputs) (uint64, float64, error) {
	c, tree, err := compile(in, in.w.threads)
	if err != nil {
		return 0, 0, err
	}
	if tree != nil {
		defer tree.Close()
	}
	eng := c.Engine()
	solver := cpd.NewSolver(eng)
	ws := solver.Acquire()
	defer solver.Release(ws)
	opts := cpd.Options{Rank: rank, MaxIters: in.w.maxIters, Tol: tol, Seed: in.seed}
	res, err := cpd.RunWith(in.t.Dims, in.normX, eng, ws, opts)
	if err != nil {
		return 0, 0, err
	}
	if err := checkResult(in.t, res, eng); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err = cpd.RunWith(in.t.Dims, in.normX, eng, ws, opts)
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, err
	}
	return m1.Mallocs - m0.Mallocs, ms(el) / float64(res.Iters), checkResult(in.t, res, eng)
}

// singleThread is the plain single-threaded baseline: the workload's
// solves compiled at T=1 and run one after another. It returns their
// summed per-iteration time, the iteration time the workload would have
// with one thread in total.
func singleThread(in *inputs) (float64, error) {
	c, tree, err := compile(in, 1)
	if err != nil {
		return 0, err
	}
	if tree != nil {
		defer tree.Close()
	}
	total := 0.0
	for i := 0; i < in.w.restarts; i++ {
		start := time.Now()
		res, err := c.DecomposeSeed(in.seed + int64(i))
		el := time.Since(start)
		if err != nil {
			return 0, err
		}
		if err := checkResult(in.t, res, c.Engine()); err != nil {
			return 0, err
		}
		total += ms(el) / float64(res.Iters)
	}
	return total, nil
}

// splattAll is one solve on the splatt-all reference engine (one CSF per
// mode) at the workload's per-solve thread count; it returns the
// per-iteration time.
func splattAll(in *inputs) (float64, error) {
	opts := in.w.options(in.w.threads, in.seed)
	opts.Engine = "splatt-all"
	c, err := stef.Compile(in.t, opts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	res, err := c.Decompose()
	el := time.Since(start)
	if err != nil {
		return 0, err
	}
	return ms(el) / float64(res.Iters), checkResult(in.t, res, c.Engine())
}

// denseStandalone times the dense update's calls on random matrices of the
// workload's factor shapes, once per mode as one ALS iteration makes them,
// repeated until 200ms have passed. It returns per-iteration milliseconds
// of Gram, Cholesky factor + solve and max-normalization, and the computed
// rate over all three.
func denseStandalone(in *inputs) (gram, solve, norm, gflops float64) {
	rng := rand.New(rand.NewSource(in.seed))
	dims := in.t.Dims
	a := make([]*tensor.Matrix, len(dims))
	b := make([]*tensor.Matrix, len(dims))
	var flops float64
	for m, n := range dims {
		a[m] = tensor.NewMatrix(n, rank)
		a[m].Randomize(rng)
		b[m] = tensor.NewMatrix(n, rank)
		// Gram (upper triangle), two triangular solves per row, and the
		// max scan plus division of normalization.
		flops += float64(n) * (rank*(rank+1) + 2*rank*rank + 2*rank)
	}
	v := tensor.NewMatrix(rank, rank)
	dense.Gram(a[0], v)
	for p := 0; p < rank; p++ {
		v.Set(p, p, v.At(p, p)+1)
	}
	g := tensor.NewMatrix(rank, rank)
	norms := make([]float64, rank)
	var chol dense.Cholesky
	var tg, ts, tn time.Duration
	reps := 0
	for reps == 0 || tg+ts+tn < 200*time.Millisecond {
		for m := range dims {
			b[m].CopyFrom(a[m])
			t0 := time.Now()
			dense.Gram(a[m], g)
			t1 := time.Now()
			if err := chol.Refactor(v); err != nil {
				panic("perfbench: " + err.Error()) // v is SPD by construction
			}
			chol.SolveRowsInPlace(b[m])
			t2 := time.Now()
			dense.NormalizeColumnsMaxInto(b[m], norms)
			t3 := time.Now()
			tg, ts, tn = tg+t1.Sub(t0), ts+t2.Sub(t1), tn+t3.Sub(t2)
		}
		reps++
	}
	r := float64(reps)
	return ms(tg) / r, ms(ts) / r, ms(tn) / r, flops * r / (tg + ts + tn).Seconds() / 1e9
}
