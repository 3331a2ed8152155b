package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit. The two tables below
// are the benchmark's schema; BENCHMARK.json lists the same names (a
// test keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run prints, on every workload.
// Each workload fills them from its own flow (see README.md):
// throughput_per_s is packets ingested per second (trace-report),
// backlog packets drained per second (follow) or answered queries per
// second in a closed loop (serve-*); latency_p50_ms is the median
// trace→report cycle (trace-report), window publication lag (follow) or
// per-query latency at a fixed open-loop rate (serve-*).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// perLayer are the metrics every traced run prints. A workload that does
// not run a layer reports 0 for it; README.md maps each metric to the
// workload and end-to-end metric it should move.
var perLayer = []metricDef{
	{"workload.gen_ns_per_event", "ns"},
	{"pcapio.write_ns_per_pkt", "ns"},
	{"pcapio.read_ns_per_pkt", "ns"},
	{"layers.decode_ns_per_pkt", "ns"},
	{"dnswire.view_ns_per_msg", "ns"},
	{"entrada.analyze_ns_per_pkt", "ns"},
	{"entrada.allocs_per_pkt", "allocs/pkt"},
	{"pipeline.workers1_pkts_per_s", "pkt/s"},
	{"pipeline.write_ns_per_pkt", "ns"},
	{"pipeline.merge_ms", "ms"},
	{"entrada.report_ms", "ms"},
	{"entrada.query_counts_us", "us"},
	{"entrada.checkpoint_ms", "ms"},
	{"entrada.checkpoint_bytes", "bytes"},
	{"entrada.restore_ms", "ms"},
	{"pcapio.follow_read_ns_per_pkt", "ns"},
	{"recursor.hit_ns", "ns"},
	{"udpengine.syscalls_per_datagram", "ratio"},
	{"udpengine.batch_size_mean", "datagrams"},
	{"udpengine.gso_segments_per_send", "segments"},
	{"recursor.miss_us", "us"},
	{"resolver.exchange_us_p50", "us"},
	{"resolver.exchange_us_p99", "us"},
	{"authserver.handle_ns", "ns"},
	{"recursor.evictions", "count"},
	{"recursor.upstream_per_query", "ratio"},
	{"pipeline.packets", "count"},
	{"entrada.tcp_queries", "count"},
	{"entrada.unmatched_responses", "count"},
	{"entrada.dropped_segments", "count"},
	{"follow.windows", "count"},
	{"recursor.hit_ratio", "ratio"},
	{"recursor.singleflight_shared", "count"},
	{"loadgen.late_max_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.allocs_per_query", "allocs/op"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// outcome is what one workload run hands back to main: operation counts,
// correctness problems, metric values by name and free-form notes that
// are printed as run metadata (reference figures, sender lateness).
type outcome struct {
	attempted, failed uint64
	problems          []string
	metrics           map[string]float64
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check records a correctness problem when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// median returns the median of xs (0 for none). xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// peakRSSMB is the process's maximum resident set so far, in MB
// (getrusage reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupRounds is how many times each workload builds its set-up; the
// reported setup_s is the median, and the last build is the one used.
const setupRounds = 5

// timedSetup builds the workload's set-up setupRounds times, releasing
// every build but the last, and returns the last with the median build
// time in seconds (less steal time, see cpuMark).
func timedSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var v T
	secs := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		start := markCPU()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		_, given := start.since()
		secs = append(secs, given.Seconds())
		if i < setupRounds-1 {
			release(v)
		}
	}
	return v, median(secs), nil
}

// cpuMark is a point in time together with the machine's cumulative
// steal time: the time the hypervisor ran something else while this
// virtual machine's CPUs were ready to run. On a shared host that time
// comes and goes from one run to the next, so every rate and duration of
// CPU-bound work is measured against wall time less steal time; the raw
// figures are printed beside them.
type cpuMark struct {
	wall  time.Time
	steal time.Duration // summed over all CPUs
}

func markCPU() cpuMark { return cpuMark{wall: time.Now(), steal: readSteal()} }

// to returns the wall time from m to n and the part of it the machine's
// CPUs were given, steal time spread evenly over the CPUs.
func (m cpuMark) to(n cpuMark) (wall, given time.Duration) {
	wall = n.wall.Sub(m.wall)
	given = wall - (n.steal-m.steal)/time.Duration(runtime.NumCPU())
	return wall, min(wall, max(given, wall/10))
}

// since is m.to(now).
func (m cpuMark) since() (wall, given time.Duration) { return m.to(markCPU()) }

// userHZ is the unit of /proc/stat's CPU times (USER_HZ, 100 on every
// Linux architecture Go supports).
const userHZ = 100

// readSteal returns the cumulative steal time of all CPUs from
// /proc/stat, or 0 where the file or the field is missing.
func readSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}
