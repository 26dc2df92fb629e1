// Command perfbench is the repository's time-to-fit benchmark: it
// generates one workload's tensor from a seed, runs full CPD-ALS solves
// (setup included) through the stef API for a fixed time, checks every
// result against the COO tensor, and prints the end-to-end metrics — or,
// with --trace 1, the per-layer metrics of a traced run — as a JSON object
// on the last line of standard output. Build and run it from the root of
// a checkout with perfbench/run.sh; BENCHMARK.json at the root names the
// workloads and metrics, and WORKLOADS.md records why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the generated tensor and of the solves")
	seconds := flag.Float64("seconds", 10, "how long to repeat time-to-fit operations")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "scratch directory for arena files and span dumps")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err == nil {
		err = run(os.Stdout, config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// printResult prints the result line. A metric that a failed operation
// left non-finite (which JSON cannot carry) prints as 0; the failure
// itself is already counted.
func printResult(w io.Writer, r result) error {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Metrics[name] = metric{0, m.Unit}
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
