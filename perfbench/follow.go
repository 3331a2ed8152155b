package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/astrie"
	"dnscentral/internal/cloudmodel"
	"dnscentral/internal/entrada"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/pipeline"
	"dnscentral/internal/workload"
)

// follow: entrada -follow on a live B-Root capture. Each cycle writes the
// first two thirds of the capture as a backlog, starts pipeline.RunStream with
// checkpoints on, measures how fast it drains the backlog, then appends
// the rest on a paced wall-clock schedule and measures, for every
// window, the lag from writing the record that closes it to its
// OnWindow callback.

// followSize is the make-up of one follow cycle.
type followSize struct {
	queries int           // B-Root query events in the capture
	windows int           // tumbling windows the capture spans
	paced   time.Duration // wall time over which the second half is written
}

func followSizeFor(e *env) followSize {
	if e.small {
		return followSize{queries: 2000, windows: 100, paced: 300 * time.Millisecond}
	}
	return followSize{queries: 30_000, windows: 600, paced: 3 * time.Second}
}

// followIdleExit ends RunStream once the finished capture stops growing.
const followIdleExit = 300 * time.Millisecond

// behindSchedule reports whether a paced sender fell behind its schedule,
// so that its run measures the load generator rather than the program:
// its median send was over 2 ms late, or some send over 100 ms late.
// Waking late alone does not count: sleeps on a virtual machine often
// end half a millisecond or more past their deadline.
func behindSchedule(late []time.Duration) bool {
	ms := durationsMs(late)
	return quantile(ms, 0.5) > 2 || quantile(ms, 1) > 100
}

// capture is a generated pcap held in memory with its record index.
type capture struct {
	data  []byte      // the whole pcap file, header included
	ends  []int       // ends[i] is the byte offset just past record i
	stamp []time.Time // record timestamps
}

// followSetup is the generator and capture a follow run replays.
type followSetup struct {
	cap   capture
	reg   *astrie.Registry
	width time.Duration
	win0  int64 // window index of the first record
}

func buildFollowSetup(e *env, sz followSize) (*followSetup, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Vantage:       cloudmodel.VantageBRoot,
		Week:          cloudmodel.W2020,
		TotalQueries:  sz.queries,
		ResolverScale: 0.01,
		Seed:          e.seed,
		Workers:       runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf, pcapio.WithNanosecondResolution())
	if _, err := gen.Run(w); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	c := capture{data: buf.Bytes()}
	r, err := pcapio.NewReader(bytes.NewReader(c.data))
	if err != nil {
		return nil, err
	}
	for {
		p, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		c.ends = append(c.ends, int(r.Offset()))
		c.stamp = append(c.stamp, p.Timestamp)
	}
	if len(c.ends) < 2 {
		return nil, fmt.Errorf("follow: capture has %d records", len(c.ends))
	}
	width := workload.Duration(cloudmodel.VantageBRoot) / time.Duration(sz.windows)
	return &followSetup{
		cap:   c,
		reg:   astrie.NewRegistry(astrie.MaxASes - 20),
		width: width,
		win0:  c.stamp[0].UnixNano() / int64(width),
	}, nil
}

func (st *followSetup) window(i int) int64 {
	return st.cap.stamp[i].UnixNano()/int64(st.width) - st.win0
}

// followCycle is one cycle's measurements.
type followCycle struct {
	catchupPkts int
	// wall and given (less steal, see cpuMark) time to drain the backlog
	catchup, catchupGiven time.Duration
	lags                  []time.Duration // paced windows only
	late                  []time.Duration // writer lateness per write
	windows               uint64
	windowQs              []uint64
	report                []byte
	path                  string
}

// runFollowCycle replays the capture once into a fresh file under dir.
func (st *followSetup) runFollowCycle(dir string, sz followSize, tr *tracer, req uint64) (*followCycle, error) {
	path := filepath.Join(dir, "live.pcap")
	ckDir := filepath.Join(dir, "state")
	c := st.cap
	n := len(c.ends)
	backlog := n * 2 / 3

	// Record k crosses a boundary when it falls in a later window than
	// record k-1: reading it closes the window of record k-1.
	nw := st.window(n-1) + 1
	writeAt := make([]atomic.Int64, nw) // closed window → unix ns its crossing record was written
	lastBacklogClose := int64(-1)       // window whose close ends the catch-up
	catchupPkts := 0
	for k := 1; k < backlog; k++ {
		if st.window(k) > st.window(k-1) {
			lastBacklogClose = st.window(k - 1)
			catchupPkts = k
		}
	}
	if lastBacklogClose < 0 {
		return nil, fmt.Errorf("follow: the backlog closes no window")
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Write(c.data[:c.ends[backlog-1]]); err != nil {
		return nil, err
	}

	cyc := &followCycle{path: path}
	var mu sync.Mutex // guards cyc.lags and cyc.windowQs, appended from OnWindow
	caughtUp := make(chan struct{})
	var caughtOnce sync.Once
	var caughtAt cpuMark
	root := tr.id()
	start := markCPU()
	onWindow := func(w pipeline.Window) {
		now := time.Now()
		idx := w.Index - st.win0
		mu.Lock()
		cyc.windowQs = append(cyc.windowQs, w.Queries)
		if idx >= 0 && idx < nw {
			if at := writeAt[idx].Load(); at != 0 {
				cyc.lags = append(cyc.lags, now.Sub(time.Unix(0, at)))
				tr.record(root, req, "pipeline.OnWindow.lag", time.Unix(0, at), now)
			}
		}
		mu.Unlock()
		if idx == lastBacklogClose {
			caughtOnce.Do(func() {
				caughtAt = markCPU()
				close(caughtUp)
			})
		}
	}

	type streamOut struct {
		ag  *entrada.Aggregates
		res pipeline.StreamResult
		err error
	}
	done := make(chan streamOut, 1)
	go func() {
		ag, res, err := pipeline.RunStream(context.Background(), path, pipeline.StreamOptions{
			Options:       pipeline.Options{Registry: st.reg},
			Window:        st.width,
			OnWindow:      onWindow,
			CheckpointDir: ckDir,
			IdleExit:      followIdleExit,
		})
		done <- streamOut{ag, res, err}
	}()

	select {
	case <-caughtUp:
	case out := <-done:
		return nil, fmt.Errorf("follow: stream ended before the backlog drained: %v", out.err)
	}
	cyc.catchupPkts = catchupPkts
	cyc.catchup, cyc.catchupGiven = start.to(caughtAt)
	tr.record(root, req, "pipeline.RunStream.catchup", start.wall, caughtAt.wall)

	// Paced half: record k is due at t0 + (ts_k - ts_first) / speed.
	first := backlog
	span := c.stamp[n-1].Sub(c.stamp[first])
	speed := float64(span) / float64(sz.paced)
	t0 := time.Now()
	due := func(k int) time.Time {
		return t0.Add(time.Duration(float64(c.stamp[k].Sub(c.stamp[first])) / speed))
	}
	for next := first; next < n; {
		now := time.Now()
		end := next
		for end < n && !due(end).After(now) {
			end++
		}
		if end == next {
			time.Sleep(due(next).Sub(now))
			continue
		}
		if _, err := f.Write(c.data[c.ends[next-1]:c.ends[end-1]]); err != nil {
			return nil, err
		}
		wt := time.Now()
		cyc.late = append(cyc.late, wt.Sub(due(next)))
		for k := next; k < end; k++ {
			if w := st.window(k); w > st.window(k-1) {
				writeAt[st.window(k-1)].Store(wt.UnixNano())
			}
		}
		next = end
	}

	out := <-done
	tr.add(root, 0, req, "follow.cycle", start.wall, time.Now())
	if out.err != nil {
		return nil, fmt.Errorf("follow: RunStream: %w", out.err)
	}
	rep := entrada.BuildReport(out.ag, st.reg)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	cyc.report = buf.Bytes()
	cyc.windows = out.res.WindowsClosed
	return cyc, nil
}

// batchReport analyzes the finished capture with batch pipeline.Run, the
// reference a follow run must reproduce byte for byte.
func (st *followSetup) batchReport(path string) ([]byte, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r, err := pcapio.Open(f)
	if err != nil {
		return nil, 0, err
	}
	ag, _, err := pipeline.Run(context.Background(), []pcapio.PacketReader{r}, pipeline.Options{Registry: st.reg})
	if err != nil {
		return nil, 0, err
	}
	rep := entrada.BuildReport(ag, st.reg)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), rep.TotalQueries, nil
}

func runFollow(e *env) (*outcome, error) {
	o := newOutcome()
	sz := followSizeFor(e)
	st, setupS, err := timedSetup(func() (*followSetup, error) { return buildFollowSetup(e, sz) },
		func(*followSetup) {})
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS

	type phase struct {
		rates    []float64
		rawRates []float64
		lags     []time.Duration
		late     []time.Duration
		wins     uint64
	}
	runPhase := func(seconds float64, tr *tracer) (*phase, error) {
		ph := &phase{}
		for start := time.Now(); len(ph.rates) == 0 || time.Since(start).Seconds() < seconds; {
			dir, err := os.MkdirTemp(e.dir, "follow-")
			if err != nil {
				return nil, err
			}
			cyc, err := st.runFollowCycle(dir, sz, tr, uint64(len(ph.rates)+1))
			if err != nil {
				return nil, err
			}
			batch, total, err := st.batchReport(cyc.path)
			if err != nil {
				return nil, err
			}
			o.problems = append(o.problems, checkSameBytes("follow and batch reports", cyc.report, batch)...)
			o.problems = append(o.problems, checkWindows(cyc.windowQs, total)...)
			o.attempted += uint64(len(st.cap.ends))
			ph.rates = append(ph.rates, float64(cyc.catchupPkts)/cyc.catchupGiven.Seconds())
			ph.rawRates = append(ph.rawRates, float64(cyc.catchupPkts)/cyc.catchup.Seconds())
			ph.lags = append(ph.lags, cyc.lags...)
			ph.late = append(ph.late, cyc.late...)
			ph.wins += cyc.windows
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		return ph, nil
	}

	untraced := e.seconds
	if e.traced {
		untraced = e.seconds / 2
	}
	ph, err := runPhase(untraced, nil)
	if err != nil {
		return nil, err
	}
	lagMs := durationsMs(ph.lags)
	lateMs := durationsMs(ph.late)
	o.notef("follow: %d cycles of %d records, %d windows of %v closed (%d paced); catch-up %.0f pkt/s median (%.0f in wall time, steal included)",
		len(ph.rates), len(st.cap.ends), ph.wins, st.width, len(lagMs), median(ph.rates), median(ph.rawRates))
	o.notef("follow: window lag p50 %.2f ms, p99 %.2f ms (reference, %d samples)",
		quantile(lagMs, 0.5), quantile(lagMs, 0.99), len(lagMs))
	o.notef("follow writer lateness: p50 %.2f ms, p99 %.2f ms, max %.2f ms over %d writes", quantile(lateMs, 0.5), quantile(lateMs, 0.99), quantile(lateMs, 1), len(lateMs))
	if behindSchedule(ph.late) {
		o.notef("SENDER BEHIND SCHEDULE: the capture writer ran late; lag figures include its delay")
	}
	if !e.traced {
		o.metrics["throughput_per_s"] = median(ph.rates)
		o.metrics["latency_p50_ms"] = median(lagMs)
		return o, nil
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tph, err := runPhase(e.seconds/2, e.tracer)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m := o.metrics
	tLate := durationsMs(tph.late)
	m["loadgen.late_p99_ms"] = quantile(tLate, 0.99)
	m["loadgen.late_max_ms"] = quantile(tLate, 1)
	m["follow.windows"] = float64(tph.wins) / float64(len(tph.rates))
	m["runtime.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(uint64(len(tph.rates))*uint64(len(st.cap.ends)))
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["trace.overhead_pct"] = (median(ph.rates)/median(tph.rates) - 1) * 100
	return o, st.layerPasses(e.dir, m)
}

// layerPasses times the follow path's layers one by one over the whole
// capture: the follow reader, the decoders, the analyzer, and the state
// operations RunStream performs at window boundaries.
func (st *followSetup) layerPasses(dir string, m map[string]float64) error {
	path := filepath.Join(dir, "follow-layers.pcap")
	if err := os.WriteFile(path, st.cap.data, 0o644); err != nil {
		return err
	}
	defer os.Remove(path)

	fr := pcapio.NewFollowReader(context.Background(), path, pcapio.FollowIdleExit(time.Millisecond))
	var read layerTimer
	tr := &timingReader{r: fr, read: &read}
	for {
		if _, err := tr.ReadPacket(); err != nil {
			if err == io.EOF {
				break
			}
			fr.Close()
			return err
		}
	}
	fr.Close()
	m["pcapio.follow_read_ns_per_pkt"] = read.nsPerItem()

	ts := &traceSetup{reg: st.reg, path: path}
	if err := decodePasses(ts, m); err != nil {
		return err
	}

	an := entrada.NewAnalyzer(st.reg)
	frames, stamps, err := loadCapture(path)
	if err != nil {
		return err
	}
	for i, f := range frames {
		an.HandlePacket(stamps[i], f)
	}
	const qcCalls = 200
	start := time.Now()
	for i := 0; i < qcCalls; i++ {
		_ = an.QueryCounts()
	}
	m["entrada.query_counts_us"] = float64(time.Since(start)) / qcCalls / 1e3
	start = time.Now()
	state, err := an.MarshalState()
	if err != nil {
		return err
	}
	m["entrada.checkpoint_ms"] = float64(time.Since(start)) / 1e6
	m["entrada.checkpoint_bytes"] = float64(len(state))
	start = time.Now()
	restored, err := entrada.RestoreAnalyzer(st.reg, state)
	if err != nil {
		return err
	}
	m["entrada.restore_ms"] = float64(time.Since(start)) / 1e6
	ag := restored.Finish()
	m["pipeline.packets"] = float64(len(frames))
	var tcp uint64
	for _, pa := range ag.ByProvider {
		tcp += pa.TCP
	}
	m["entrada.tcp_queries"] = float64(tcp)
	m["entrada.unmatched_responses"] = float64(restored.UnmatchedResp)
	m["entrada.dropped_segments"] = float64(ag.DroppedSegments)
	return nil
}
