package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"stef/internal/core"
	"stef/internal/cpd"
	"stef/internal/tensor"
)

// testSeed differs from the flag's default seed.
const testSeed = 12345

// tiny shrinks a workload so a whole invocation takes well under a second.
func tiny(w workload) workload {
	w.nnz /= 100
	w.dimScale = 50
	w.maxIters = 2
	return w
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricPrinted runs every workload at a tiny size, untraced and
// traced, and checks that the last line carries exactly the declared
// metrics with their units and that every operation passed its check.
func TestEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			err := run(&out, config{workload: tiny(w), seed: testSeed, seconds: 0, trace: traced, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, traced, name, got, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: undeclared metric %s", w.name, traced, name)
				}
			}
		}
	}
}

// perturbedEngine adds 1 to the first row of every MTTKRP output.
type perturbedEngine struct{ cpd.Engine }

func (e perturbedEngine) Compute(ws cpd.Workspace, pos int, factors []*tensor.Matrix, out *tensor.Matrix) {
	e.Engine.Compute(ws, pos, factors, out)
	for j := range out.Row(0) {
		out.Row(0)[j]++
	}
}

// TestPerturbedRowCountsAsFailure solves with a timing engine whose output
// has one perturbed row and checks that the output check reports it and
// the tally counts it, while the unperturbed engine passes.
func TestPerturbedRowCountsAsFailure(t *testing.T) {
	in, err := prepare(tiny(workloads[1]), testSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(in.t, core.Options{Rank: rank, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	timed := timedEngine{inner: core.NewEngine(plan)}
	tl := &tally{w: io.Discard}
	for _, eng := range []cpd.Engine{timed, perturbedEngine{timed}} {
		res, err := cpd.Run(in.t.Dims, in.normX, eng, cpd.Options{Rank: rank, MaxIters: 2, Tol: tol, Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		tl.add("solve", checkResult(in.t, res, eng))
	}
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1 (only the perturbed solve fails)", tl.attempted, tl.failed)
	}
}

// TestSelfTimesSubtractChildUnion checks that overlapping children (two
// concurrent restarts) are subtracted once.
func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "cpd", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "cpd", Start: 20, End: 70},
		{ID: 4, Parent: 2, Layer: "kernels", Start: 15, End: 25},
		{ID: 5, Parent: 1, Layer: "core", Start: 80, End: 90},
	}
	got := layerSelf(spans)
	want := map[string]int64{"bench": 100 - 60 - 10, "cpd": 40 + 50, "kernels": 10, "core": 10}
	for layer, ns := range want {
		if int64(got[layer]) != ns {
			t.Errorf("%s self = %d, want %d", layer, got[layer], ns)
		}
	}
}
