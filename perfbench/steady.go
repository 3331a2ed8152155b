package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// steadiness runs one workload n times, each in a fresh process with the
// next seed, and prints for every metric its median, quartiles, spread
// (interquartile range over median, the figure a bound is held to) and
// worst single deviation from the median, both also as a share of the
// metric's bound in BENCHMARK.json when the file is at hand.
func steadiness(name string, seed int64, seconds float64, traced bool, n int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds("BENCHMARK.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var failShares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", trace)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: correctness check failed:\n%s", s, out)
		}
		failShares = append(failShares, float64(res.Failed)/float64(res.Attempted))
		var parts []string
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			parts = append(parts, fmt.Sprintf("%s=%.6g", k, m.Value))
		}
		sort.Strings(parts)
		fmt.Fprintf(stdout, "run %d seed %d: attempted %d failed %d %s\n", i+1, s, res.Attempted, res.Failed, strings.Join(parts, " "))
	}

	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "\n%s: %d runs of %gs, failed share min %.6g max %.6g\n", name, n, seconds, minOf(failShares), maxOf(failShares))
	fmt.Fprintf(stdout, "%-34s %12s %12s %12s %8s %8s %6s %9s %9s\n",
		"metric", "median", "q1", "q3", "spread", "worst", "bound", "spread/b", "worst/b")
	for _, k := range names {
		xs := values[k]
		med := median(append([]float64(nil), xs...))
		q1, q3 := quartiles(xs)
		spread, worst := 0.0, 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
			for _, x := range xs {
				worst = math.Max(worst, math.Abs(x-med)/math.Abs(med))
			}
		}
		line := fmt.Sprintf("%-34s %12.6g %12.6g %12.6g %8.4f %8.4f", k+" ("+units[k]+")", med, q1, q3, spread, worst)
		if b, ok := bounds[k]; ok {
			line += fmt.Sprintf(" %6.3f %9.3f %9.3f", b, spread/b, worst/b)
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so figures here match an outside check made with it.
func quartiles(xs []float64) (float64, float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// lastResult parses a run's final output line.
func lastResult(out []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %q", last)
	}
	return res, nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json,
// or nothing when the file is not there.
func readBounds(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	b := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
