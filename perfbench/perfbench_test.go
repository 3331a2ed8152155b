package main

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnscentral/internal/astrie"
	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/resolver"
	"dnscentral/internal/workload"
	"dnscentral/internal/zonedb"
)

// runBench runs the benchmark in-process and parses its last line.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	t.Setenv("PERFBENCH_DIR", t.TempDir())
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// TestSmallRuns runs every workload at test size, untraced and traced:
// each must pass its checks, fail no operation, and print every metric
// of its kind.
func TestSmallRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				res, out := runBench(t, "--workload", name, "--small", "--seconds", "1", "--seed", "7", "--trace", trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" && res.Metrics["trace.overhead_pct"].Value == 0 {
					t.Errorf("traced run reports no tracing overhead")
				}
			})
		}
	}
}

// TestWrappersKeepFastPaths holds the traced run's wrappers to the
// interfaces the program tests for: a sink without BatchSink drops the
// generator to per-packet writes, and a transport without
// ContextTransport makes every upstream exchange run in a goroutine.
func TestWrappersKeepFastPaths(t *testing.T) {
	var sink workload.PacketSink = &timingSink{}
	if _, ok := sink.(workload.BatchSink); !ok {
		t.Error("timingSink does not implement workload.BatchSink")
	}
	var tr resolver.Transport = &timingTransport{}
	if _, ok := tr.(resolver.ContextTransport); !ok {
		t.Error("timingTransport does not implement resolver.ContextTransport")
	}

	// And the generator does take the batch path through the wrapper.
	gen, err := workload.NewGenerator(workload.Config{Vantage: "nl", Week: "w2020", TotalQueries: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := &timingSink{w: pcapio.NewWriter(&buf), tr: newTracer()}
	if _, err := gen.Run(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.write.items.Load() == 0 || s.tr.count() == 0 {
		t.Errorf("generator wrote %d records and %d batches through the wrapper; want the batch path",
			s.write.items.Load(), s.tr.count())
	}
}

// smallCycle generates and analyzes a small .nl capture.
func smallCycle(t *testing.T) cycleResult {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Vantage: "nl", Week: "w2020", TotalQueries: 2000, ResolverScale: 0.002, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := &traceSetup{gen: gen, events: 2000, reg: astrie.NewRegistry(astrie.MaxASes - 20),
		opts: []entrada.Option{entrada.WithZoneOrigin("nl")}, path: filepath.Join(t.TempDir(), "c.pcap")}
	c, err := st.cycle(2)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCheckTruthCatchesCorruption(t *testing.T) {
	c := smallCycle(t)
	if p := checkTruth(c.agg, c.rep, c.gt); len(p) != 0 {
		t.Fatalf("clean analysis reported %v", p)
	}
	corrupt := []struct {
		name string
		mod  func(gt *workload.GroundTruth)
	}{
		{"provider count", func(gt *workload.GroundTruth) { gt.ByProvider[astrie.ProviderGoogle]++ }},
		{"tcp count", func(gt *workload.GroundTruth) { gt.TCPQueries[astrie.ProviderGoogle]++ }},
		{"ipv6 count", func(gt *workload.GroundTruth) { gt.V6Queries[astrie.ProviderGoogle]++ }},
		{"junk count", func(gt *workload.GroundTruth) { gt.JunkQueries[astrie.ProviderGoogle]++ }},
		{"qtype count", func(gt *workload.GroundTruth) { gt.ByType[dnswire.TypeA]++ }},
		{"resolver set", func(gt *workload.GroundTruth) { gt.ResolverSet[netip.MustParseAddr("192.0.2.77")] = struct{}{} }},
		{"total", func(gt *workload.GroundTruth) { gt.Queries-- }},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			gt := cloneTruth(c.gt)
			tc.mod(gt)
			if p := checkTruth(c.agg, c.rep, gt); len(p) == 0 {
				t.Errorf("corrupted %s passed the check", tc.name)
			}
		})
	}
}

func cloneTruth(gt *workload.GroundTruth) *workload.GroundTruth {
	out := *gt
	cp := func(m map[astrie.Provider]uint64) map[astrie.Provider]uint64 {
		c := make(map[astrie.Provider]uint64, len(m))
		for k, v := range m {
			c[k] = v
		}
		return c
	}
	out.ByProvider, out.TCPQueries = cp(gt.ByProvider), cp(gt.TCPQueries)
	out.V6Queries, out.JunkQueries = cp(gt.V6Queries), cp(gt.JunkQueries)
	out.ByType = make(map[dnswire.Type]uint64)
	for k, v := range gt.ByType {
		out.ByType[k] = v
	}
	out.ResolverSet = make(map[netip.Addr]struct{})
	for k := range gt.ResolverSet {
		out.ResolverSet[k] = struct{}{}
	}
	return &out
}

// TestReportComparisonsCatchDifferences covers the byte-identity checks
// (workers=1 against sharded, follow against batch) and the window sum.
func TestReportComparisonsCatchDifferences(t *testing.T) {
	c := smallCycle(t)
	other := append([]byte(nil), c.json...)
	if p := checkSameBytes("reports", c.json, other); len(p) != 0 {
		t.Fatalf("identical reports differ: %v", p)
	}
	i := bytes.Index(other, []byte(`"total_queries": `)) + len(`"total_queries": `)
	other[i]++ // a follow report one query off the batch one
	if p := checkSameBytes("reports", c.json, other); len(p) == 0 {
		t.Error("differing reports passed the check")
	}
	if p := checkWindows([]uint64{3, 4}, 7); len(p) != 0 {
		t.Errorf("matching window sum reported %v", p)
	}
	if p := checkWindows([]uint64{3, 4}, 8); len(p) == 0 {
		t.Error("window sum one short passed the check")
	}
}

// TestCheckAnswerCatchesBadAnswers builds a correct answer from the
// engine, then corrupts its ID, rcode, question and TTL one at a time.
func TestCheckAnswerCatchesBadAnswers(t *testing.T) {
	zone, err := zonedb.NewCcTLD("nl", 1000, 0, 0.55, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		t.Fatal(err)
	}
	eng := authserver.NewEngine(zone)
	const name = "www.d42.nl."
	good := func() []byte {
		q := dnswire.NewQuery(77, name, dnswire.TypeA)
		r := eng.Handle(q, netip.MustParseAddr("127.0.0.1"), false)
		wire, err := authserver.PackResponse(r, q, false)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	if err := checkAnswer(good(), 77, name, dnswire.TypeA, eng); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	mutate := func(f func(m *dnswire.Message)) []byte {
		m, err := dnswire.Unpack(good())
		if err != nil {
			t.Fatal(err)
		}
		f(m)
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	bad := map[string][]byte{
		"wrong id":       mutate(func(m *dnswire.Message) { m.Header.ID = 78 }),
		"wrong rcode":    mutate(func(m *dnswire.Message) { m.Header.RCode = dnswire.RCodeNXDomain }),
		"wrong question": mutate(func(m *dnswire.Message) { m.Questions[0].Name = "www.d43.nl." }),
		"higher ttl":     mutate(func(m *dnswire.Message) { m.Authority[0].TTL++ }),
		"missing record": mutate(func(m *dnswire.Message) { m.Authority = m.Authority[1:] }),
	}
	for what, wire := range bad {
		if err := checkAnswer(wire, 77, name, dnswire.TypeA, eng); err == nil {
			t.Errorf("%s passed the check", what)
		}
	}
	lower := mutate(func(m *dnswire.Message) { m.Authority[0].TTL-- })
	if err := checkAnswer(lower, 77, name, dnswire.TypeA, eng); err != nil {
		t.Errorf("an aged (lower) TTL was rejected: %v", err)
	}

	// The verifier's fast path must not wave a wrong answer through
	// because its class was checked before.
	v := newVerifier(eng)
	q := stubQuery{name: name, class: name}
	query, _ := packQuery(77, name)
	v.observe(good(), query, q)
	v.settle()
	v.observe(bad["wrong rcode"], query, q)
	v.settle()
	if len(v.problems()) != 1 {
		t.Errorf("verifier problems %v, want exactly the wrong rcode", v.problems())
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the runs print in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "trace-report,follow,serve-hot,serve-miss" {
		t.Errorf("workloads %v", names)
	}
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w)
		}
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &e2e); err != nil {
		t.Fatal(err)
	}
	match("end_to_end", e2e.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
