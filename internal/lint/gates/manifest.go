package gates

// Manifest declares which packages are compiled with diagnostics enabled
// and which of their functions are hot: inside a hot function, any escape
// or bounds-check diagnostic positioned in a loop body is a violation
// unless a //gate:allow directive covers it. Diagnostics anywhere else in
// the gated packages are baseline-ratcheted instead.
type Manifest struct {
	// Packages are the import paths built with -m=1 -d=ssa/check_bce.
	Packages []string
	// Rules lists the hot functions by qualified short name
	// ("pkgname.Func" or "pkgname.Type.Method").
	Rules []Rule
	// Shapes lists per-function machine-code assertions checked against
	// the -S listing (shape.go).
	Shapes []ShapeRule
}

// Rule marks one function as hot.
type Rule struct {
	// Func is the qualified short name, e.g. "kernels.rootThread".
	Func string
	// Note records why the function is on the manifest; it is echoed in
	// failure messages so a gate trip explains itself.
	Note string
}

func (m *Manifest) ruleFor(fn string) (Rule, bool) {
	for _, r := range m.Rules {
		if r.Func == fn {
			return r, true
		}
	}
	return Rule{}, false
}

// IsGatedPackage reports whether the default manifest compiles pkgPath
// with diagnostics — i.e. whether //gate:allow directives in that package
// can ever take effect.
func IsGatedPackage(pkgPath string) bool {
	for _, p := range Default().Packages {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// Default is the repository's manifest: the per-nnz MTTKRP path from the
// paper's Algorithms 2–9 plus the thread-launch and partition machinery it
// runs under. The stated notes mirror the paper's cost model — these
// functions execute O(nnz) (or O(fibers)) times per CPD iteration, so a
// single stray allocation or check multiplies across the whole tensor.
func Default() *Manifest {
	return &Manifest{
		Packages: []string{
			"stef/internal/kernels",
			"stef/internal/par",
			"stef/internal/sched",
			"stef/internal/dense",
		},
		Rules: []Rule{
			{Func: "kernels.RootMTTKRPWith", Note: "root-mode dispatch (Alg. 4/5), runs once per iteration but owns the boundary-replica setup loop"},
			{Func: "kernels.rootThread", Note: "root kernel per-thread body (Alg. 4/5): depth-first walk over every level, per-nnz"},
			{Func: "kernels.foldLeaves", Note: "leaf-level axpy loop inlined into the root kernel, once per nonzero"},
			{Func: "kernels.RootMTTKRPSubtrees", Note: "subtree-parallel root kernel (ablation path), per-nnz"},
			{Func: "kernels.ModeMTTKRPSubtrees", Note: "subtree-parallel non-root kernel, per-nnz"},
			{Func: "kernels.ModeMTTKRPWith", Note: "non-root dispatch (Alg. 6-8)"},
			{Func: "kernels.modeThread", Note: "non-root kernel per-thread body (Alg. 6-8): depth-first walk over every level, per-nnz"},
			{Func: "kernels.zero", Note: "rank-vector clear inside every fiber visit; must lower to memclr"},
			{Func: "kernels.addScaled", Note: "leaf-level axpy, executed once per nonzero"},
			{Func: "kernels.OutBufThread.AddScaled", Note: "per-add output scatter: hot-replica / direct / CAS dispatch, once per leaf write"},
			{Func: "kernels.OutBufThread.AddHadamard", Note: "per-add output scatter (Hadamard form), once per internal-node write"},
			{Func: "kernels.OutBuf.Reduce", Note: "touched-row reduction driver, O(touched·R) per mode solve"},
			{Func: "kernels.OutBuf.reducePrivRows", Note: "journal-guided privatized reduction loop, per touched row"},
			{Func: "kernels.OutBuf.reduceHybridRows", Note: "hot-slab combine + cold-row copy loop, per touched row"},
			{Func: "kernels.OutBuf.combineHot", Note: "log-T tree combine of the hot replica slabs"},
			{Func: "kernels.CountRowWrites", Note: "O(nnz) write census behind every accumulation plan"},
			{Func: "kernels.hadamardAccum", Note: "fiber fold-up, executed once per internal CSF node"},
			{Func: "kernels.hadamardInto", Note: "downward Khatri-Rao product, executed once per internal CSF node"},
			{Func: "par.Blocks", Note: "thread launcher wrapping every parallel kernel"},
			{Func: "par.Do", Note: "thread launcher wrapping every parallel kernel"},
			{Func: "sched.NewPartition", Note: "nnz-balanced partition walk (Alg. 3), O(nnz) leaf scan at build time"},
			{Func: "dense.solveRows4", Note: "four-row interleaved forward/back substitution, O(R²) per factor row on every mode update"},
			{Func: "dense.gramRows4", Note: "four-row packed Gram accumulation, O(R²) per factor row on every mode update"},
			{Func: "dense.gramRow1", Note: "packed Gram tail for the last 1-3 rows of a chunk"},
			{Func: "dense.gramRows", Note: "row-group driver of the packed Gram, once per factor chunk"},
			{Func: "dense.Cholesky.solveRows", Note: "row-group driver of the solve, once per factor chunk"},
			{Func: "dense.UpdateScratch.solveChunks", Note: "dense-update pass 1 chunk body: copy, solve, clamp, column statistic"},
			{Func: "dense.UpdateScratch.gramChunks", Note: "dense-update pass 2 chunk body: scale and packed Gram partial"},
			{Func: "dense.sumSquares", Note: "per-chunk column sums of squares, O(rows·R) in the first iteration"},
			{Func: "dense.maxAbs", Note: "per-chunk column max, O(rows·R) on every later mode update"},
			{Func: "dense.divideColumns", Note: "column scaling, O(rows·R) on every mode update"},
		},
		// Hand-written shape rules for the variable-length scalar
		// primitives; vecShapeRules() adds one per generated R-blocked
		// specialization (internal/kernels/vec_gen.go), so every emitted
		// kernel is born certified.
		Shapes: append([]ShapeRule{
			{
				Func: "kernels.addScaled", Note: "8-wide unrolled axpy: call-free, >=8 FP muls per iteration",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: 0,
			},
			{
				Func: "kernels.hadamardAccum", Note: "8-wide unrolled fused multiply-accumulate fold",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: 0,
			},
			{
				Func: "kernels.hadamardInto", Note: "8-wide unrolled elementwise product",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 8, MaxLoopFrameLoads: 0,
			},
			{
				Func: "dense.solveRows4", Note: "four interleaved substitution chains: call-free, >=4 FP muls per inner loop; the two frame loads are the forward row loop's L base and row-slice bound, the inner loops load nothing from the frame",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 4, MaxLoopFrameLoads: 2,
			},
			{
				Func: "dense.gramRows4", Note: "four-row outer-product accumulation: call-free, >=4 FP muls per inner loop",
				MaxCalls: 0, MaxLoopCalls: 0, MaxBounds: Unchecked, MinFPMul: 4, MaxLoopFrameLoads: 0,
			},
		}, vecShapeRules()...),
	}
}
