package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/entrada"
	"dnscentral/internal/layers"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/pipeline"
	"dnscentral/internal/workload"
)

// trace-report: the dnstracegen → entrada flow users run to reproduce
// the paper. Each cycle generates a .nl w2020 capture into a pcap file
// and analyzes it at GOMAXPROCS workers into the JSON report.

// traceReportQueries is the query-event count of one cycle's capture.
func traceReportQueries(e *env) int {
	if e.small {
		return 3000
	}
	return 60_000
}

func traceReportConfig(e *env) workload.Config {
	return workload.Config{
		Vantage:       cloudmodel.VantageNL,
		Week:          cloudmodel.W2020,
		TotalQueries:  traceReportQueries(e),
		ResolverScale: 0.01, // dnstracegen's default
		Seed:          e.seed,
		Workers:       runtime.GOMAXPROCS(0),
	}
}

// traceSetup is what a cycle needs before its first timed operation:
// the generator (model, zone, resolver pools) and the analyzer's AS
// registry, built the way dnstracegen and entrada build them.
type traceSetup struct {
	gen    *workload.Generator
	events int
	reg    *astrie.Registry
	opts   []entrada.Option
	path   string
}

// cycleResult is one trace→report cycle.
type cycleResult struct {
	gt      *workload.GroundTruth
	agg     *entrada.Aggregates
	rep     *entrada.Report
	json    []byte
	packets uint64
	// Wall and given (less steal, see cpuMark) times of the two stages.
	gen, genGiven       time.Duration // generator → pcap file
	ingest, ingestGiven time.Duration // pcap file → merged aggregates → report
}

func (c cycleResult) ingestRate() float64 { return float64(c.packets) / c.ingestGiven.Seconds() }

func (c cycleResult) cycleMs() float64 {
	return float64(c.genGiven+c.ingestGiven) / float64(time.Millisecond)
}

// captureSink is what the generator writes a capture through.
type captureSink interface {
	workload.PacketSink
	Flush() error
}

// generate writes the cycle's capture to st.path through the sink
// newSink wraps around the file.
func (st *traceSetup) generate(newSink func(io.Writer) captureSink) (*workload.GroundTruth, error) {
	f, err := os.Create(st.path)
	if err != nil {
		return nil, err
	}
	sink := newSink(f)
	gt, err := st.gen.Run(sink)
	if err == nil {
		err = sink.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", st.path, err)
	}
	return gt, nil
}

func pcapWriter(w io.Writer) captureSink {
	return pcapio.NewWriter(w, pcapio.WithNanosecondResolution())
}

// ingest runs the capture through pipeline.Run and renders the report,
// as cmd/entrada does.
func (st *traceSetup) ingest(workers int) (*entrada.Aggregates, *entrada.Report, []byte, pipeline.Stats, error) {
	f, err := os.Open(st.path)
	if err != nil {
		return nil, nil, nil, pipeline.Stats{}, err
	}
	defer f.Close()
	r, err := pcapio.Open(f)
	if err != nil {
		return nil, nil, nil, pipeline.Stats{}, err
	}
	ag, stats, err := pipeline.Run(context.Background(), []pcapio.PacketReader{r}, pipeline.Options{
		Workers: workers, Registry: st.reg, AnalyzerOpts: st.opts,
	})
	if err != nil {
		return nil, nil, nil, stats, err
	}
	rep := entrada.BuildReport(ag, st.reg)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, nil, nil, stats, err
	}
	return ag, rep, buf.Bytes(), stats, nil
}

// cycle runs one untraced trace→report cycle.
func (st *traceSetup) cycle(workers int) (cycleResult, error) {
	start := markCPU()
	gt, err := st.generate(pcapWriter)
	if err != nil {
		return cycleResult{}, err
	}
	mid := markCPU()
	ag, rep, js, stats, err := st.ingest(workers)
	if err != nil {
		return cycleResult{}, err
	}
	c := cycleResult{gt: gt, agg: ag, rep: rep, json: js, packets: stats.PacketsRead}
	c.gen, c.genGiven = start.to(mid)
	c.ingest, c.ingestGiven = mid.since()
	return c, nil
}

// traceLayers accumulates the traced cycles' per-layer timings.
type traceLayers struct {
	sinkTime, runTime time.Duration
	events            uint64
	write, read, eng  layerTimer
	merge, report     []float64 // ms per cycle
}

// tracedCycle runs one cycle with every call into a layer timed: the
// generator through a timing sink, and the ingest through a
// pipeline.Engine fed from a timed reader, so Engine.WritePacket,
// Engine.Close and BuildReport each get their own span.
func (st *traceSetup) tracedCycle(tr *tracer, req uint64, tl *traceLayers) (cycleResult, error) {
	root := tr.id()
	start := time.Now()
	var sink *timingSink
	gt, err := st.generate(func(w io.Writer) captureSink {
		sink = &timingSink{w: pcapio.NewWriter(w, pcapio.WithNanosecondResolution()), tr: tr, parent: root, req: req}
		return sink
	})
	if err != nil {
		return cycleResult{}, err
	}
	mid := time.Now()
	tr.add(tr.id(), root, req, "workload.Generator.Run", start, mid)
	tl.runTime += mid.Sub(start)
	tl.sinkTime += time.Duration(sink.write.ns.Load())
	tl.write.add(sink.write.items.Load(), time.Duration(sink.write.ns.Load()))
	tl.events += uint64(st.events)

	f, err := os.Open(st.path)
	if err != nil {
		return cycleResult{}, err
	}
	defer f.Close()
	pr, err := pcapio.Open(f)
	if err != nil {
		return cycleResult{}, err
	}
	r := &timingReader{r: pr, read: &tl.read}
	eng, err := pipeline.NewEngine(context.Background(), pipeline.Options{Registry: st.reg, AnalyzerOpts: st.opts})
	if err != nil {
		return cycleResult{}, err
	}
	var n uint64
	batchStart := time.Now()
	for {
		pkt, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			eng.Close()
			return cycleResult{}, err
		}
		t0 := time.Now()
		err = eng.WritePacket(pkt.Timestamp, pkt.Data)
		tl.eng.add(1, time.Since(t0))
		if err != nil {
			eng.Close()
			return cycleResult{}, err
		}
		if n++; n%4096 == 0 {
			now := time.Now()
			tr.record(root, req, "pipeline.Engine.WritePacket×4096", batchStart, now)
			batchStart = now
		}
	}
	t0 := time.Now()
	ag, err := eng.Close()
	t1 := time.Now()
	if err != nil {
		return cycleResult{}, err
	}
	rep := entrada.BuildReport(ag, st.reg)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return cycleResult{}, err
	}
	end := time.Now()
	tr.record(root, req, "pipeline.Engine.Close", t0, t1)
	tr.record(root, req, "entrada.BuildReport", t1, end)
	tr.add(root, 0, req, "trace-report.cycle", start, end)
	tl.merge = append(tl.merge, float64(t1.Sub(t0))/float64(time.Millisecond))
	tl.report = append(tl.report, float64(end.Sub(t1))/float64(time.Millisecond))
	return cycleResult{gt: gt, agg: ag, rep: rep, json: buf.Bytes(), packets: n,
		gen: mid.Sub(start), genGiven: mid.Sub(start), ingest: end.Sub(mid), ingestGiven: end.Sub(mid)}, nil
}

func runTraceReport(e *env) (*outcome, error) {
	o := newOutcome()
	cfg := traceReportConfig(e)
	st, setupS, err := timedSetup(func() (*traceSetup, error) {
		gen, err := workload.NewGenerator(cfg)
		if err != nil {
			return nil, err
		}
		return &traceSetup{
			gen:    gen,
			events: cfg.TotalQueries,
			reg:    astrie.NewRegistry(astrie.MaxASes - 20), // as cmd/entrada
			opts:   []entrada.Option{entrada.WithZoneOrigin("nl")},
			path:   filepath.Join(e.dir, "trace-report.pcap"),
		}, nil
	}, func(*traceSetup) {})
	if err != nil {
		return nil, err
	}
	defer os.Remove(st.path)
	o.metrics["setup_s"] = setupS
	workers := runtime.GOMAXPROCS(0)

	// Reference cycle, untimed: the report must match the generator's
	// ground truth, and a single-worker ingest must render the very same
	// bytes as the sharded one.
	ref, err := st.cycle(workers)
	if err != nil {
		return nil, err
	}
	o.problems = append(o.problems, checkTruth(ref.agg, ref.rep, ref.gt)...)
	t0 := time.Now()
	_, _, seqJSON, seqStats, err := st.ingest(1)
	if err != nil {
		return nil, err
	}
	workers1Rate := float64(seqStats.PacketsRead) / time.Since(t0).Seconds()
	o.problems = append(o.problems, checkSameBytes("workers=1 and workers="+fmt.Sprint(workers)+" reports", seqJSON, ref.json)...)

	// checkCycle holds every timed cycle to the reference: the same
	// ground truth, and a report byte-identical to the reference's.
	checkCycle := func(c cycleResult) {
		o.attempted += c.packets
		o.problems = append(o.problems, checkTruth(c.agg, c.rep, c.gt)...)
		o.problems = append(o.problems, checkSameBytes("cycle and reference reports", c.json, ref.json)...)
	}

	untraced := e.seconds
	if e.traced {
		untraced = e.seconds / 2
	}
	var rates, cycles, rawRates, rawCycles []float64
	for start := time.Now(); len(cycles) == 0 || time.Since(start).Seconds() < untraced; {
		c, err := st.cycle(workers)
		if err != nil {
			return nil, err
		}
		checkCycle(c)
		rates = append(rates, c.ingestRate())
		cycles = append(cycles, c.cycleMs())
		rawRates = append(rawRates, float64(c.packets)/c.ingest.Seconds())
		rawCycles = append(rawCycles, float64(c.gen+c.ingest)/float64(time.Millisecond))
	}
	o.notef("trace-report: %d cycles of %d queries (%d packets each); ingest %.0f pkt/s median, cycle %.1f ms median",
		len(cycles), cfg.TotalQueries, ref.packets, median(rates), median(cycles))
	o.notef("trace-report: in wall time, steal included: ingest %.0f pkt/s median, cycle %.1f ms median",
		median(rawRates), median(rawCycles))
	if !e.traced {
		o.metrics["throughput_per_s"] = median(rates)
		o.metrics["latency_p50_ms"] = median(cycles)
		return o, nil
	}

	// Traced half: the same cycles with every layer call timed.
	tr := e.tracer
	var tl traceLayers
	var tracedRates []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var tracedPkts uint64
	for start := time.Now(); len(tracedRates) == 0 || time.Since(start).Seconds() < e.seconds/2; {
		c, err := st.tracedCycle(tr, uint64(len(tracedRates)+1), &tl)
		if err != nil {
			return nil, err
		}
		checkCycle(c)
		tracedPkts += c.packets
		tracedRates = append(tracedRates, c.ingestRate())
	}
	runtime.ReadMemStats(&ms1)

	m := o.metrics
	m["workload.gen_ns_per_event"] = float64(tl.runTime-tl.sinkTime) / float64(tl.events)
	m["pcapio.write_ns_per_pkt"] = tl.write.nsPerItem()
	m["pcapio.read_ns_per_pkt"] = tl.read.nsPerItem()
	m["pipeline.write_ns_per_pkt"] = tl.eng.nsPerItem()
	m["pipeline.merge_ms"] = median(tl.merge)
	m["entrada.report_ms"] = median(tl.report)
	m["pipeline.workers1_pkts_per_s"] = workers1Rate
	m["pipeline.packets"] = float64(ref.packets)
	var tcp uint64
	for _, pa := range ref.agg.ByProvider {
		tcp += pa.TCP
	}
	m["entrada.tcp_queries"] = float64(tcp)
	m["entrada.unmatched_responses"] = float64(seqStats.UnmatchedResponses)
	m["entrada.dropped_segments"] = float64(ref.agg.DroppedSegments)
	m["runtime.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(tracedPkts)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["trace.overhead_pct"] = (median(rates)/median(tracedRates) - 1) * 100

	// Decoder passes over the same packets through the public decoders.
	if err := decodePasses(st, m); err != nil {
		return nil, err
	}
	return o, nil
}

// decodePasses times the frame decoder, the DNS wire view and the whole
// analyzer per packet over the cycle's capture, each in a tight loop.
func decodePasses(st *traceSetup, m map[string]float64) error {
	frames, stamps, err := loadCapture(st.path)
	if err != nil {
		return err
	}
	p := layers.NewParser()
	start := time.Now()
	for _, f := range frames {
		_, _ = p.Decode(f)
	}
	m["layers.decode_ns_per_pkt"] = float64(time.Since(start)) / float64(len(frames))

	// UDP payloads are whole DNS messages; TCP payloads are segments.
	var payloads [][]byte
	for _, f := range frames {
		if fl, err := p.Decode(f); err == nil && fl.Proto == layers.IPProtoUDP {
			payloads = append(payloads, p.Payload)
		}
	}

	var v dnswire.View
	var msgs int
	start = time.Now()
	for _, pl := range payloads {
		if v.Reset(pl) == nil && v.Validate() == nil {
			msgs++
		}
	}
	m["dnswire.view_ns_per_msg"] = float64(time.Since(start)) / float64(max(msgs, 1))

	an := entrada.NewAnalyzer(st.reg, st.opts...)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for i, f := range frames {
		an.HandlePacket(stamps[i], f)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&ms1)
	an.Finish()
	m["entrada.analyze_ns_per_pkt"] = float64(d) / float64(len(frames))
	m["entrada.allocs_per_pkt"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(frames))
	return nil
}

// loadCapture reads every record of a pcap file into memory, copying
// the frames out of the reader's reused buffer.
func loadCapture(path string) ([][]byte, []time.Time, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r, err := pcapio.Open(f)
	if err != nil {
		return nil, nil, err
	}
	var frames [][]byte
	var stamps []time.Time
	err = pcapio.ForEachPacket(r, func(p pcapio.Packet) error {
		frames = append(frames, append([]byte(nil), p.Data...))
		stamps = append(stamps, p.Timestamp)
		return nil
	})
	return frames, stamps, err
}
