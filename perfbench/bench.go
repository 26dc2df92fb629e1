package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"stef"
	"stef/internal/core"
	"stef/internal/cpd"
	"stef/internal/csf"
	"stef/internal/kernels"
	"stef/internal/par"
)

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string // scratch directory for arenas and span dumps
}

// A metric is one printed number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opTimes are the end-to-end timings of one time-to-fit operation: setup
// (stef.Compile, or stef.OpenArena + stef.CompileTree) plus every solve of
// the workload, from inputs in hand to every Result returned.
type opTimes struct {
	ttf, setup, solve time.Duration
	iters             int
	fit               float64
	rssMB             float64 // resident-set high-water mark at the end of the solves
	stealPct          float64 // share of CPU time the hypervisor stole during the operation
}

func (o opTimes) iterMS() float64 { return ms(o.solve) / float64(o.iters) }

// tally counts attempted and failed operations; a failure is an error, a
// non-finite output or a failed output check, and never stops the run.
type tally struct {
	attempted, failed int
	w                 io.Writer
}

func (t *tally) add(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.w, "FAILED %s: %v\n", what, err)
	}
}

// run executes one benchmark invocation and prints its result as the last
// line of w.
func run(w io.Writer, cfg config) error {
	in, err := prepare(cfg.workload, cfg.seed, cfg.out)
	if err != nil {
		return err
	}
	defer in.cleanup()
	tl := &tally{w: w}
	var metrics map[string]metric
	var ps planStats
	steal0, total0 := cpuSteal()
	if cfg.trace {
		metrics, ps, err = traced(w, in, cfg, tl)
	} else {
		metrics, ps, err = untraced(w, in, cfg, tl)
	}
	if err != nil {
		return err
	}
	steal1, total1 := cpuSteal()
	stampHost(w, in, ps, stealShare(steal0, total0, steal1, total1))
	fmt.Fprintf(w, "failed_ratio %d/%d = %g\n", tl.failed, tl.attempted, float64(tl.failed)/float64(tl.attempted))
	return printResult(w, result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics})
}

// untraced runs time-to-fit operations through the public stef API for
// cfg.seconds and reports the end-to-end metrics as medians over them.
func untraced(w io.Writer, in *inputs, cfg config, tl *tally) (map[string]metric, planStats, error) {
	var ops []opTimes
	var plan planStats
	start := time.Now()
	for len(ops) == 0 || time.Since(start).Seconds() < cfg.seconds {
		resetPeakRSS()
		op, p, err := untracedOp(in)
		tl.add("time-to-fit", err)
		if op != nil {
			fmt.Fprintf(w, "op %d time_to_fit_s=%.4f setup_s=%.4f iter_ms=%.2f iters=%d fit=%.6f rss_mb=%.1f steal_pct=%.1f\n", len(ops)+1, op.ttf.Seconds(), op.setup.Seconds(), op.iterMS(), op.iters, op.fit, op.rssMB, op.stealPct)
			ops = append(ops, *op)
			plan = p
		} else if time.Since(start).Seconds() >= cfg.seconds {
			return nil, plan, fmt.Errorf("no operation completed: %w", err)
		}
	}
	return endToEnd(ops), plan, nil
}

// endToEnd are the metrics a user of the solver sees.
func endToEnd(ops []opTimes) map[string]metric {
	med := func(f func(opTimes) float64) float64 {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		return median(xs)
	}
	return map[string]metric{
		"time_to_fit_s": {med(func(o opTimes) float64 { return o.ttf.Seconds() }), "s"},
		"setup_s":       {med(func(o opTimes) float64 { return o.setup.Seconds() }), "s"},
		"iter_ms":       {med(opTimes.iterMS), "ms"},
		"final_fit":     {med(func(o opTimes) float64 { return o.fit }), "fit"},
		"peak_rss_mb":   {lowestPeak(ops), "MB"},
	}
}

// lowestPeak is the smallest per-operation resident-set peak. Operations
// differ in how much garbage is still uncollected at their peak (on
// vast5d-skewed by ~15%, depending on when a collection falls between the
// two CSF builds); the smallest peak is the operation's own footprint and
// is steady from run to run.
func lowestPeak(ops []opTimes) float64 {
	low := ops[0].rssMB
	for _, o := range ops[1:] {
		low = math.Min(low, o.rssMB)
	}
	return low
}

// compile is the workload's setup through the public API. The returned
// tree is the opened arena (nil when built from COO); the caller closes it
// after the handle's last use.
func compile(in *inputs, threads int) (*stef.Compiled, *csf.Tree, error) {
	opts := in.w.options(threads, in.seed)
	if in.arena == "" {
		c, err := stef.Compile(in.t, opts)
		return c, nil, err
	}
	tree, err := stef.OpenArena(in.arena)
	if err != nil {
		return nil, nil, err
	}
	c, err := stef.CompileTree(tree, opts)
	if err != nil {
		tree.Close()
		return nil, nil, err
	}
	return c, tree, nil
}

// untracedOp times one operation and then checks its result. It returns
// nil timings when the operation did not complete; a completed operation
// whose check fails returns both.
func untracedOp(in *inputs) (*opTimes, planStats, error) {
	steal0, total0 := cpuSteal()
	t0 := time.Now()
	c, tree, err := compile(in, in.w.threads)
	if err != nil {
		return nil, planStats{}, err
	}
	if tree != nil {
		defer tree.Close()
	}
	t1 := time.Now()
	var res *cpd.Result
	if in.w.restarts > 1 {
		res, err = c.DecomposeBest(in.w.restarts)
	} else {
		res, err = c.Decompose()
	}
	t2 := time.Now()
	if err != nil {
		return nil, planStats{}, err
	}
	steal1, total1 := cpuSteal()
	op := &opTimes{ttf: t2.Sub(t0), setup: t1.Sub(t0), solve: t2.Sub(t1), iters: res.Iters, fit: res.FinalFit(), rssMB: peakRSSMB(),
		stealPct: stealShare(steal0, total0, steal1, total1)}
	return op, statsOf(c.Plan()), checkResult(in.t, res, c.Engine())
}

// tracedOp runs the same operation as untracedOp, but calls the layers
// directly — the calls stef.Compile / stef.CompileTree and DecomposeBest
// make — with a span around each and a timing engine around the kernels.
func tracedOp(in *inputs, tr *tracer, run int) (*tracedTimes, error) {
	w := in.w
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	t0 := time.Now()
	opID := tr.begin(run, 0, "bench", "time_to_fit")
	copts := core.Options{Rank: rank, Threads: w.threads}
	var plan *core.Plan
	var err error
	if in.arena != "" {
		id := tr.begin(run, opID, "csf", "OpenArena")
		tree, oerr := csf.OpenArena(in.arena)
		tr.end(id)
		if oerr != nil {
			tr.end(opID)
			return nil, oerr
		}
		defer tree.Close()
		id = tr.begin(run, opID, "core", "NewPlanFromTree")
		plan, err = core.NewPlanFromTree(tree, copts)
		tr.end(id)
	} else {
		id := tr.begin(run, opID, "core", "NewPlan")
		plan, err = core.NewPlan(in.t, copts)
		tr.end(id)
	}
	if err != nil {
		tr.end(opID)
		return nil, err
	}
	eng := timedEngine{inner: core.NewEngine(plan)}
	solver := cpd.NewSolver(eng)
	t1 := time.Now()
	results := make([]*cpd.Result, w.restarts)
	errs := make([]error, w.restarts)
	par.Do(w.restarts, func(i int) {
		results[i], errs[i] = tracedSolve(in, tr, run, opID, solver, in.seed+int64(i))
	})
	t2 := time.Now()
	tr.end(opID)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)

	best, err := pickBest(results, errs)
	if err != nil {
		return nil, err
	}
	tt := &tracedTimes{
		op:    opTimes{ttf: t2.Sub(t0), setup: t1.Sub(t0), solve: t2.Sub(t1), iters: best.Iters, fit: best.FinalFit()},
		plan:  statsOf(plan),
		gc:    int(gc1.NumGC - gc0.NumGC),
		spans: tr.spansOf(run),
	}
	return tt, checkResult(in.t, best, eng)
}

// tracedSolve is one restart of a traced operation: the pooled workspace's
// Acquire, the ALS driver and the Release, each under a span.
func tracedSolve(in *inputs, tr *tracer, run, parent int, solver *cpd.Solver, seed int64) (*cpd.Result, error) {
	id := tr.begin(run, parent, "cpd", "Solver.Acquire")
	ws := solver.Acquire()
	tr.end(id)
	defer solver.Release(ws)
	id = tr.begin(run, parent, "cpd", "RunWith")
	ws.(*timedWorkspace).bind(tr, run, id)
	res, err := cpd.RunWith(in.t.Dims, in.normX, solver.Engine(), ws, cpd.Options{Rank: rank, MaxIters: in.w.maxIters, Tol: tol, Seed: seed})
	tr.end(id)
	return res, err
}

// pickBest returns the result with the best final fit, first in seed
// order on ties — stef.Compiled.DecomposeBest's rule.
func pickBest(results []*cpd.Result, errs []error) (*cpd.Result, error) {
	var best *cpd.Result
	for i, res := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if best == nil || res.FinalFit() > best.FinalFit() {
			best = res
		}
	}
	return best, nil
}

// planStats are the plan's decisions and sizes, read while its tree is
// still open.
type planStats struct {
	build, preprocess                time.Duration
	csfBytes, factorBytes, memoBytes int64
	csfFibers, csfNNZ                int64
	memoLevels                       int
	swap                             bool
	modeledCost                      int64
	// Non-root accumulation strategies, counted by level.
	priv, hybrid, atomic int
}

func statsOf(p *core.Plan) planStats {
	ps := planStats{
		build: p.BuildTime, preprocess: p.PreprocessTime,
		csfBytes: p.CSFBytes, factorBytes: p.FactorBytes, memoBytes: p.MemoBytes,
		csfNNZ: p.Tree.NNZ64(), swap: p.Config.Swap, modeledCost: p.Config.Cost.Total(),
	}
	for _, n := range p.Tree.FiberCounts() {
		ps.csfFibers += n
	}
	for _, s := range p.Config.Save {
		if s {
			ps.memoLevels++
		}
	}
	for _, a := range p.Accum {
		if a == nil {
			continue
		}
		switch a.Strategy {
		case kernels.AccumPriv:
			ps.priv++
		case kernels.AccumHybrid:
			ps.hybrid++
		case kernels.AccumAtomic:
			ps.atomic++
		}
	}
	return ps
}

// workingSet is the plan's computed footprint: CSF, factors and memoized
// partials.
func (ps planStats) workingSet() int64 { return ps.csfBytes + ps.factorBytes + ps.memoBytes }

// stampHost prints the host, the share of CPU time the hypervisor stole
// while the operations ran (wall-clock metrics slow down by about that
// share), and the workload's working set next to the last-level cache
// size.
func stampHost(w io.Writer, in *inputs, p planStats, stealPct float64) {
	llc := llcBytes()
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d go=%s llc_bytes=%d steal_pct=%.1f\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), llc, stealPct)
	ratio := "unknown"
	if llc > 0 {
		ratio = fmt.Sprintf("%.2f", float64(p.workingSet())/float64(llc))
	}
	fmt.Fprintf(w, "workload %s seed=%d dims=%v nnz=%d working_set_bytes=%d (csf=%d factors=%d memo=%d) working_set/llc=%s\n",
		in.w.name, in.seed, in.t.Dims, in.t.NNZ(), p.workingSet(), p.csfBytes, p.factorBytes, p.memoBytes, ratio)
}

// llcBytes reads the size of cpu0's highest-level data or unified cache
// from sysfs; 0 when unavailable.
func llcBytes() int64 {
	var best, bestLevel int64
	for i := 0; ; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err := os.ReadFile(dir + "level")
		if err != nil {
			return best
		}
		typ, _ := os.ReadFile(dir + "type")
		size, _ := os.ReadFile(dir + "size")
		var lv, kb int64
		fmt.Sscanf(string(level), "%d", &lv)
		fmt.Sscanf(string(size), "%dK", &kb)
		if string(typ) != "Instruction\n" && lv >= bestLevel {
			best, bestLevel = kb<<10, lv
		}
	}
}

// cpuSteal returns the stolen and total CPU time of all CPUs, in clock
// ticks, from the first line of /proc/stat; zeros when unavailable.
func cpuSteal() (steal, total int64) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ { // user .. steal; guest is inside user
		v, _ := strconv.ParseInt(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the percentage of CPU time stolen between two cpuSteal
// readings.
func stealShare(steal0, total0, steal1, total1 int64) float64 {
	return 100 * float64(steal1-steal0) / float64(max(1, total1-total0))
}

// resetPeakRSS collects the heap, returns it to the OS and resets the
// kernel's resident-set high-water mark. Called before every operation, it
// starts each one from the same heap, as in a fresh process, and makes the
// mark read after the solves the peak of one operation — not of input
// generation or of the output check. It collects twice: a workspace left
// in the previous operation's cpd.Solver pool survives one collection in
// the pool's victim cache. Where the reset is not permitted the mark stays
// the process peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark (VmHWM) since the last
// resetPeakRSS; 0 when /proc is unavailable.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of xs (which it sorts); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
