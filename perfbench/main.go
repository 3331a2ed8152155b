// Command perfbench is the repository's benchmark. One run executes one
// named workload end to end through the program's packages, checks the
// program's outputs against a computation made apart from it, and
// prints run metadata followed, as its last line, by one JSON object
// with the operation counts and every metric by name with its unit.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload trace-report --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --workload follow --steady 10
//
// --trace 1 is the traced run: it measures the workload untraced and then
// traced, each for half the time, prints the per-layer metrics instead
// of the end-to-end ones, and writes its spans as JSON lines to
// <output dir>/spans-<workload>.jsonl. --steady N runs the workload N times
// with consecutive seeds and prints each metric's spread. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is one run's configuration, shared by every workload.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	// small shrinks every input to test size.
	small bool
	// dir holds the files the run writes; it is removed at the end.
	dir    string
	tracer *tracer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"trace-report": runTraceReport,
	"follow":       runFollow,
	"serve-hot":    runServeHot,
	"serve-miss":   runServeMiss,
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = traced run, printing the per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, …) and print each metric's spread")
	small := fs.Bool("small", false, "test-size inputs (seconds-long runs for go test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *steady > 0 {
		if err := steadiness(*name, *seed, *seconds, *trace == 1, *steady, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	base := outputDir()
	if err := os.MkdirAll(base, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, small: *small, dir: dir}
	if e.traced {
		e.tracer = newTracer()
	}

	printMetadata(stdout, *name, e)
	o, err := runner(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	fmt.Fprintf(stdout, "# operations: %d attempted, %d failed\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintln(stdout, "# CHECK FAILED:", p)
	}
	if e.traced {
		path := filepath.Join(base, "spans-"+*name+".jsonl")
		if err := e.tracer.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans: %d written to %s\n", e.tracer.count(), path)
	}

	defs := endToEnd
	if e.traced {
		defs = perLayer
	} else {
		o.metrics["peak_rss_mb"] = peakRSSMB()
	}
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: o.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outputDir is where a run writes its files: $PERFBENCH_DIR, which
// run.sh sets to its build directory, else .bench_build.
func outputDir() string {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetadata prints what a figure from this run must be labelled
// with: host CPU, core counts, Go and kernel versions and the inputs.
func printMetadata(w io.Writer, name string, e *env) {
	fmt.Fprintf(w, "# workload: %s  seed: %d  seconds: %g  trace: %v  small: %v\n", name, e.seed, e.seconds, e.traced, e.small)
	fmt.Fprintf(w, "# cpu: %s  nproc: %d  GOMAXPROCS: %d\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# go: %s  kernel: %s  os/arch: %s/%s\n", runtime.Version(), kernelRelease(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
