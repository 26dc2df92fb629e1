package stef

// This file maps every table and figure of the paper's evaluation section
// to a Go benchmark, as indexed in DESIGN.md §4:
//
//	BenchmarkTableI    — benchmark-suite generation + CSF construction
//	BenchmarkFig3      — per-engine MTTKRP iteration time, R=32/64 (host)
//	BenchmarkFig4      — modeled-makespan evaluation at T=64
//	BenchmarkFig5      — preprocessing (Alg. 9 + model search)
//	BenchmarkTableII   — planning + memo-storage accounting
//	BenchmarkFig6      — ablation variants of STeF
//	BenchmarkKernels   — micro-benchmarks of the individual MTTKRP kernels
//
// The benchmarks use a reduced tensor subset (and -short further reduces
// nnz) so `go test -bench=. -benchmem` completes on a laptop; run
// cmd/stef-bench for the full-suite tables.

import (
	"fmt"
	"testing"

	"stef/internal/core"
	"stef/internal/csf"
	"stef/internal/experiments"
	"stef/internal/kernels"
	"stef/internal/sched"
	"stef/internal/tensor"
)

// benchTensors is the representative subset used by the timing benchmarks:
// one small dense-ish 4D tensor, the pathological 2-root-slice tensor, and
// one hypersparse 3D tensor.
var benchTensors = []string{"uber", "vast-2015-mc1-3d", "nell-2"}

func benchTensor(b *testing.B, name string) *tensor.Tensor {
	b.Helper()
	p, err := tensor.ProfileByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if testing.Short() {
		p.NNZ /= 10
	}
	return p.Generate()
}

func BenchmarkTableI(b *testing.B) {
	for _, name := range benchTensors {
		b.Run(name, func(b *testing.B) {
			p, err := tensor.ProfileByName(name)
			if err != nil {
				b.Fatal(err)
			}
			if testing.Short() {
				p.NNZ /= 10
			}
			for i := 0; i < b.N; i++ {
				tt := p.Generate()
				tr := csf.Build(tt, nil)
				if tr.NNZ() != tt.NNZ() {
					b.Fatal("nnz mismatch")
				}
			}
		})
	}
}

func benchFig3(b *testing.B, rank int) {
	for _, name := range benchTensors {
		tt := benchTensor(b, name)
		for _, spec := range experiments.AllEngines() {
			b.Run(fmt.Sprintf("%s/%s", name, spec.Name), func(b *testing.B) {
				eng, err := spec.Build(tt, 4, rank, 0)
				if err != nil {
					b.Fatal(err)
				}
				factors := tensor.RandomFactors(tt.Dims, rank, 7)
				d := tt.Order()
				order := eng.UpdateOrder()
				outs := make([]*tensor.Matrix, d)
				for pos := 0; pos < d; pos++ {
					outs[pos] = tensor.NewMatrix(tt.Dims[order[pos]], rank)
				}
				ws := eng.NewWorkspace()
				ws.Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for pos := 0; pos < d; pos++ {
						eng.Compute(ws, pos, factors, outs[pos])
					}
				}
			})
		}
	}
}

func BenchmarkFig3_R32(b *testing.B) { benchFig3(b, 32) }
func BenchmarkFig3_R64(b *testing.B) { benchFig3(b, 64) }

func BenchmarkFig4_ModeledT64(b *testing.B) {
	for _, name := range benchTensors {
		tt := benchTensor(b, name)
		for _, engine := range []string{"splatt-all", "stef", "stef2"} {
			b.Run(fmt.Sprintf("%s/%s", name, engine), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.ModeledMakespan(engine, tt, 64, 32, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig5_Preprocessing(b *testing.B) {
	for _, name := range benchTensors {
		tt := benchTensor(b, name)
		tree := csf.Build(tt, nil)
		b.Run(name+"/alg9", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tree.CountSwappedFibers(4) == 0 {
					b.Fatal("zero fibers")
				}
			}
		})
		b.Run(name+"/fullplan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPlan(tt, core.Options{Rank: 32, Threads: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableII_Accounting(b *testing.B) {
	for _, rank := range []int{32, 64} {
		b.Run(fmt.Sprintf("R%d", rank), func(b *testing.B) {
			tt := benchTensor(b, "uber")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := core.NewPlan(tt, core.Options{Rank: rank})
				if err != nil {
					b.Fatal(err)
				}
				_ = plan.Ratio()
			}
		})
	}
}

func BenchmarkFig6_Ablations(b *testing.B) {
	tt := benchTensor(b, "vast-2015-mc1-3d")
	variants := []struct {
		name string
		opts core.Options
	}{
		{"model-chosen", core.Options{}},
		{"slice-sched", core.Options{SliceSched: true}},
		{"save-all", core.Options{SaveRule: core.SaveAll}},
		{"save-none", core.Options{SaveRule: core.SaveNone}},
		{"swap-opposite", core.Options{SwapRule: core.SwapOpposite}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			o := v.opts
			o.Rank, o.Threads = 32, 4
			eng, _, err := core.NewEngineFor(tt, o)
			if err != nil {
				b.Fatal(err)
			}
			factors := tensor.RandomFactors(tt.Dims, 32, 7)
			d := tt.Order()
			order := eng.UpdateOrder()
			outs := make([]*tensor.Matrix, d)
			for pos := 0; pos < d; pos++ {
				outs[pos] = tensor.NewMatrix(tt.Dims[order[pos]], 32)
			}
			ws := eng.NewWorkspace()
			ws.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pos := 0; pos < d; pos++ {
					eng.Compute(ws, pos, factors, outs[pos])
				}
			}
		})
	}
}

// Micro-benchmarks of the individual kernels.

func BenchmarkKernels(b *testing.B) {
	tt := benchTensor(b, "nell-2")
	tree := csf.Build(tt, nil)
	const rank = 32
	factors := tensor.RandomFactors(tt.Dims, rank, 1)
	lf := kernels.LevelFactors(factors, tree.Perm())
	part := sched.NewPartition(tree, 4)
	d := tree.Order()

	saveAll := make([]bool, d)
	for l := 1; l <= d-2; l++ {
		saveAll[l] = true
	}
	memo := kernels.NewPartials(tree, rank, saveAll)
	noMemo := kernels.NoPartials(d)
	out0 := tensor.NewMatrix(tree.Dim(0), rank)

	b.Run("root/no-memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.RootMTTKRP(tree, lf, out0, noMemo, part)
		}
	})
	b.Run("root/memo-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.RootMTTKRP(tree, lf, out0, memo, part)
		}
	})
	kernels.RootMTTKRP(tree, lf, out0, memo, part)
	for u := 1; u < d; u++ {
		buf := kernels.NewOutBuf(tree.Dim(u), rank, 4, 0)
		out := tensor.NewMatrix(tree.Dim(u), rank)
		b.Run(fmt.Sprintf("mode%d/memoized", u), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf.Reset(out)
				kernels.ModeMTTKRP(tree, lf, u, memo, buf, part)
			}
		})
		b.Run(fmt.Sprintf("mode%d/recompute", u), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf.Reset(out)
				kernels.ModeMTTKRP(tree, lf, u, noMemo, buf, part)
			}
		})
	}
	b.Run("alg9-count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.CountSwappedFibers(4)
		}
	})
	b.Run("csf-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csf.Build(tt, nil)
		}
	})
	b.Run("partition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched.NewPartition(tree, 16)
		}
	})
}
