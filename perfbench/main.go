// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the bufferqoe facade (sweeps) or a
// qoebench -serve process built from the same tree (serve-mixed),
// checks every output, and prints each metric by name with its unit.
//
// With -trace 0 it reports the end-to-end metrics a user of the
// system waits on; with -trace 1 it makes a separate traced run and
// reports per-layer metrics instead. The last line of standard output
// is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (normally through run.sh, which builds both binaries):
//
//	perfbench -qoebench PATH --workload access-media --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: the checked outcome plus metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every correctness failure; a non-empty list makes
	// Correct false. Printed to stderr, never to the result line.
	problems []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

// set records a metric; non-finite values are a benchmark bug and are
// reported as a correctness problem rather than printed as JSON NaN.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness problem.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	qoebench string // path of the qoebench binary (serve-mixed)
	outDir   string // where traced runs write spans and profiles
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: "+workloadNames())
		seed     = fs.Uint64("seed", defaultSeed, "workload seed (inputs are a pure function of it)")
		seconds  = fs.Float64("seconds", 20, "measured length of the run in seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: separate traced run with per-layer metrics")
		qoebench = fs.String("qoebench", "", "path of a qoebench binary built from this tree (serve-mixed)")
		outDir   = fs.String("out", ".bench_build/perfbench", "directory for traced-run artifacts (spans, profiles)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, qoebench: *qoebench, outDir: *outDir,
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		return 2
	}

	env := stampEnv()
	fmt.Fprintf(stdout, "# env %s\n", mustJSON(env))
	// The machine's speed at the start of the run, for reading run-to-run
	// differences that are the machine's rather than the program's.
	fmt.Fprintf(stdout, "# calib %.2f ns/event\n", calibNSPerEvent())
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	res, err := runner(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	res.Correct = len(res.problems) == 0
	if res.Attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: nothing was attempted")
		return 1
	}
	printTable(stdout, res.Metrics)
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric by name with its unit, sorted.
func printTable(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-34s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(b)
}
