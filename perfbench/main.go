// Command perfbench is CloudyBench's repository benchmark: it runs one named
// workload (oltp-crowd, crash-durable or artifact-sweep) composed from the
// public entry points of cdb, core, sim, evaluator and check, repeats it
// until the measuring budget is spent, checks every simulated output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// by name with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload oltp-crowd --seed 1 --seconds 20 --trace 0
//
// See README.md for the metric definitions and the provenance of each
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, measures the workload and prints the report. It returns
// the process exit code: 0 when every correctness check held, 1 when one
// failed, 2 on a usage error.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "host seconds to spend repeating the workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(errOut, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(errOut, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(errOut, "perfbench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}

	sc := defaultScale(*seed)
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "machine: nproc=%d GOMAXPROCS=%d go=%s cell_pool=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), w.pool(sc))
	fmt.Fprintf(out, "params: %s\n", w.describe(sc))

	m := measure(w, sc, budget, *trace == 1, out)
	return report(m, *trace == 1, out)
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the metrics of m by name with units, the digest and the
// check summary, then the JSON result line, and returns the exit code.
func report(m measurement, traced bool, out io.Writer) int {
	metrics := m.endToEnd()
	if traced {
		metrics = m.perLayer()
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-40s %16.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	ratio := float64(m.failed) / float64(m.attempted)
	fmt.Fprintf(out, "cell_s_tail: p%d over %d cells per repetition\n", m.tailPct, m.cellsPerRep)
	fmt.Fprintf(out, "check_fail_ratio: %g (%d of %d checks failed)\n", ratio, m.failed, m.attempted)
	for _, f := range m.failures {
		fmt.Fprintf(out, "check failed: %s\n", f)
	}
	fmt.Fprintf(out, "sim_digest: %s\n", m.digest)
	line, err := json.Marshal(resultLine{
		Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if m.failed > 0 {
		return 1
	}
	return 0
}
