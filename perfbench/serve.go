package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/authserver"
	"dnscentral/internal/dnswire"
	"dnscentral/internal/recursor"
	"dnscentral/internal/resolver"
	"dnscentral/internal/stats"
	"dnscentral/internal/telemetry"
	"dnscentral/internal/zonedb"
)

// serve-hot and serve-miss: stub → recursor → two authservers, all in
// this process on loopback sockets, configured with the commands'
// defaults. Each run measures capacity in a closed loop and latency at
// the workload's fixed rate in an open loop.

// serveProfile is what distinguishes the two serving workloads.
type serveProfile struct {
	name string
	// miss makes every stub query a name never asked before
	// (w<n>.d<k>.nl.); otherwise names are Zipf over www.d<k>.nl.
	miss bool
	// rate is the open-loop send rate, queries per second.
	rate float64
}

var (
	serveHot  = serveProfile{name: "serve-hot", rate: 10_000}
	serveMiss = serveProfile{name: "serve-miss", miss: true, rate: 1_000}
)

const (
	serveDomains   = 100_000 // cmd/authserver's default -domains
	serveNames     = 1000    // name universe: d0 … d999
	serveWindow    = 32      // closed loop: queries outstanding per stub socket
	stubTimeout    = time.Second
	stubRetries    = 2
	upstreamTimout = 3 * time.Second // cmd/recursor's default -timeout
)

func runServeHot(e *env) (*outcome, error)  { return runServe(e, serveHot) }
func runServeMiss(e *env) (*outcome, error) { return runServe(e, serveMiss) }

// serveSetup is the serving tier under test plus the bookkeeping the
// checks need.
type serveSetup struct {
	zone  *zonedb.Zone
	auths []*authserver.Server
	rec   *recursor.Recursor
	srv   *recursor.Server
	ref   *authserver.Engine // answers checks compare against
	reg   *telemetry.Registry
	xlog  *exchangeLog
	names *nameSource
	ver   *verifier
	tr    *tracer
}

// buildServe starts two authservers and a recursor in front of them, as
// cmd/authserver and cmd/recursor configure them by default. A traced
// build attaches a telemetry registry and wraps each upstream transport.
func buildServe(p serveProfile, seed int64, tr *tracer, traced bool) (*serveSetup, error) {
	zone, err := zonedb.NewCcTLD("nl", serveDomains, 0, 0.55, []string{"ns1.dns.nl", "ns2.dns.nl"})
	if err != nil {
		return nil, err
	}
	s := &serveSetup{zone: zone, ref: authserver.NewEngine(zone), tr: tr}
	s.names = newNameSource(p, seed)
	s.ver = newVerifier(s.ref)
	if traced {
		s.reg = telemetry.New()
		s.xlog = &exchangeLog{}
	}
	acfg := authserver.ServerConfig{
		TCPIdleTimeout: 10 * time.Second, MaxTCPConns: 128, UDPBatch: 32, UDPGSO: true,
	}
	var ups []*recursor.Upstream
	for _, name := range []string{"cloudA", "cloudB"} {
		a, err := authserver.ListenConfig("127.0.0.1:0", authserver.NewEngine(zone), acfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.auths = append(s.auths, a)
		var t resolver.Transport = &resolver.NetTransport{Server: a.Addr(), Timeout: upstreamTimout}
		if traced {
			t = &timingTransport{inner: t.(resolver.ContextTransport), log: s.xlog, tr: tr}
		}
		ups = append(ups, &recursor.Upstream{Name: name, Transport: t})
	}
	s.rec = recursor.New(recursor.Config{
		Origin:          "nl.",
		CacheEntries:    1 << 16,
		CacheShards:     16,
		EDNSSize:        1232,
		UpstreamTimeout: upstreamTimout,
		MinTTL:          time.Second,
		MaxTTL:          time.Hour,
		MaxStale:        time.Hour,
		StaleTTL:        30 * time.Second,
		FailTTL:         2 * time.Second,
		Breaker:         recursor.BreakerConfig{Failures: 5, OpenFor: time.Second},
		UseCookies:      true,
		RRL:             recursor.RRLConfig{SlipEvery: 2},
		Flood:           recursor.FloodConfig{Hold: 5 * time.Second, ProbeRate: 1},
		Seed:            1,
		Telemetry:       s.reg,
	}, recursor.NewPool(1, ups...))
	s.srv, err = recursor.Serve("127.0.0.1:0", s.rec, recursor.ServerConfig{
		UDPBatch: 32, UDPGSO: true, TCPIdleTimeout: 10 * time.Second, MaxTCPConns: 128, Telemetry: s.reg,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveSetup) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.rec != nil {
		s.rec.WaitRefreshes()
	}
	for _, a := range s.auths {
		a.Close()
	}
}

// warm asks every name of the universe once (serve-hot) or a first set
// of fresh names (serve-miss), so the cache, the upstream RTT estimates
// and the cookie jars are in their running state before timing starts.
func (s *serveSetup) warm() error {
	queries := make([]stubQuery, serveNames)
	for k := range queries {
		queries[k] = s.names.warmName(k)
	}
	res, err := closedLoopQueries(s.srv.Addr(), queries, s.ver)
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d queries unanswered", res.failed, len(queries))
	}
	return nil
}

// fill brings a serve-miss recursor's cache to its 65536-entry bound
// with fresh names before timing starts, so that the run measures the
// steady state of a recursor under a random-subdomain flood: every miss
// also evicts an entry, and memory has reached its plateau.
func (s *serveSetup) fill(small bool) error {
	target := int64(1 << 16)
	if small {
		target = 2000
	}
	senders := runtime.NumCPU()
	errs := make([]error, senders)
	var failed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := newWindowClient(s.srv.Addr(), s.ver)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.close()
			st := s.names.stream(0, w)
			qs := make([]stubQuery, serveWindow)
			for s.names.serial.Load() < target {
				for i := range qs {
					qs[i] = st.next()
				}
				var r loopResult
				if err := c.exchange(qs, &r); err != nil {
					errs[w] = err
					return
				}
				failed.Add(r.failed)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("cache fill: %d queries unanswered", n)
	}
	return nil
}

// upstreamQueries sums the wire exchanges the recursor sent upstream.
func (s *serveSetup) upstreamQueries() uint64 {
	var n uint64
	pool := s.rec.Pool()
	for i := 0; i < pool.Len(); i++ {
		n += pool.Upstream(i).Queries()
	}
	return n
}

// stubQuery is one stub question; the benchmark only asks type A.
type stubQuery struct {
	name string
	key  int // name rank (serve-hot) or serial (serve-miss)
	// class groups questions whose answers are identical bytes but for
	// the ID: the name itself for serve-hot; for serve-miss, whose names
	// all have the same length, the delegation they fall under.
	class string
}

// nameSource draws stub names from the workload's seed. serve-hot draws
// Zipf ranks over the universe; serve-miss hands out names never asked
// before, w<seed>-<serial>.d<k>.nl., under existing delegations.
type nameSource struct {
	miss   bool
	seed   int64
	hot    []string     // www.d<k>.nl. by rank
	deleg  []string     // d<k> by rank
	serial atomic.Int64 // serve-miss: names handed out so far
	mu     sync.Mutex
	asked  map[int]struct{} // distinct ranks asked
	warmed []stubQuery      // the warm-up names, cached once warm
}

func newNameSource(p serveProfile, seed int64) *nameSource {
	ns := &nameSource{miss: p.miss, seed: seed, asked: make(map[int]struct{})}
	for k := 0; k < serveNames; k++ {
		ns.hot = append(ns.hot, fmt.Sprintf("www.d%d.nl.", k))
		ns.deleg = append(ns.deleg, fmt.Sprintf("d%d", k))
	}
	return ns
}

// rank returns the serve-hot question for rank k.
func (ns *nameSource) rank(k int) stubQuery {
	ns.mu.Lock()
	ns.asked[k] = struct{}{}
	ns.mu.Unlock()
	return stubQuery{name: ns.hot[k], key: k, class: ns.hot[k]}
}

// warmName is the k-th warm-up question: every rank once (serve-hot), or
// one fresh name under each delegation (serve-miss).
func (ns *nameSource) warmName(k int) stubQuery {
	if ns.miss {
		return ns.fresh(k)
	}
	return ns.rank(k)
}

// fresh returns a never-asked name under delegation d<k>. The serial is
// zero-padded so that every fresh name under one delegation has the same
// length, and so the same answer bytes.
func (ns *nameSource) fresh(k int) stubQuery {
	n := int(ns.serial.Add(1))
	k %= serveNames
	return stubQuery{name: fmt.Sprintf("w%d-%010d.%s.nl.", ns.seed, n, ns.deleg[k]), key: n, class: ns.deleg[k]}
}

// distinct counts the distinct names asked so far: the ranks drawn plus
// the fresh names handed out.
func (ns *nameSource) distinct() uint64 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return uint64(len(ns.asked)) + uint64(ns.serial.Load())
}

// stream is one sender's question sequence, derived from the seed, the
// phase and the sender index so it does not depend on scheduling.
type stream struct {
	ns   *nameSource
	rng  *rand.Rand
	zipf *stats.Zipf
}

func (ns *nameSource) stream(phase, sender int) *stream {
	rng := rand.New(rand.NewSource(ns.seed*1_000_003 + int64(phase)*1009 + int64(sender)))
	return &stream{ns: ns, rng: rng, zipf: stats.NewZipf(rng, 1.0, serveNames)}
}

func (s *stream) next() stubQuery {
	if s.ns.miss {
		return s.ns.fresh(s.rng.Intn(serveNames))
	}
	return s.ns.rank(int(s.zipf.Next()))
}

// verifier checks every answer a stub receives. The ID and question echo
// are compared with the query at once. The rest is checked against the
// reference engine once per answer class, off the timed path (the
// warm-up covers every class); any answer whose bytes differ from its
// class's checked answer is kept and checked in full by settle.
type verifier struct {
	ref     *authserver.Engine
	mu      sync.Mutex
	known   map[string]checkedAnswer
	pending []heldAnswer
	bad     []string
}

// checkedAnswer is the part of a checked answer every answer of its
// class repeats: header flags and counts, and all after the question.
type checkedAnswer struct {
	flags [dnswire.HeaderLen - 2]byte
	rest  []byte
}

type heldAnswer struct {
	wire, query []byte
	q           stubQuery
}

func newVerifier(ref *authserver.Engine) *verifier {
	return &verifier{ref: ref, known: make(map[string]checkedAnswer)}
}

// observe checks one answer to query, the wire form of q.
func (v *verifier) observe(ans, query []byte, q stubQuery) {
	if len(ans) >= len(query) && bytes.Equal(ans[:2], query[:2]) &&
		bytes.Equal(ans[dnswire.HeaderLen:len(query)], query[dnswire.HeaderLen:]) {
		v.mu.Lock()
		k, ok := v.known[q.class]
		v.mu.Unlock()
		if ok && bytes.Equal(k.flags[:], ans[2:dnswire.HeaderLen]) && bytes.Equal(k.rest, ans[len(query):]) {
			return
		}
	}
	v.mu.Lock()
	v.pending = append(v.pending, heldAnswer{wire: append([]byte(nil), ans...), query: query, q: q})
	v.mu.Unlock()
}

func (v *verifier) fail(msg string) {
	v.mu.Lock()
	if len(v.bad) < maxProblems {
		v.bad = append(v.bad, msg)
	}
	v.mu.Unlock()
}

// settle checks every held answer in full against the reference engine
// and remembers the checked ones as their class's answer.
func (v *verifier) settle() {
	v.mu.Lock()
	held := v.pending
	v.pending = nil
	v.mu.Unlock()
	for _, h := range held {
		id := binary.BigEndian.Uint16(h.query)
		if err := checkAnswer(h.wire, id, h.q.name, dnswire.TypeA, v.ref); err != nil {
			v.fail(err.Error())
			continue
		}
		if len(h.wire) < len(h.query) {
			continue
		}
		var k checkedAnswer
		copy(k.flags[:], h.wire[2:dnswire.HeaderLen])
		k.rest = h.wire[len(h.query):]
		v.mu.Lock()
		if _, ok := v.known[h.q.class]; !ok {
			v.known[h.q.class] = k
		}
		v.mu.Unlock()
	}
}

func (v *verifier) problems() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.bad...)
}

// servePhase is how long each closed-loop or open-loop stretch lasts. A
// run alternates the two until its time is up, so a slow spell of the
// shared machine falls on both metrics alike, and each metric is the
// median over the whole run.
const servePhase = time.Second

// phases alternates closed-loop and open-loop stretches for d in total,
// counting every query into o. It returns the closed-loop answered rate
// (median over 250 ms slices) and the pooled open-loop samples.
func (s *serveSetup) phases(p serveProfile, d time.Duration, o *outcome) (float64, openResult, error) {
	var rates []float64
	var open openResult
	var cl loopResult
	for i, start := 0, time.Now(); i == 0 || time.Since(start) < d; i++ {
		r, res, err := closedLoop(s, 2*i+1, min(servePhase, d/2))
		if err != nil {
			return 0, open, err
		}
		rates = append(rates, r...)
		cl.add(res)
		or, err := openLoop(s, 2*i+2, p.rate, min(servePhase, d/2))
		if err != nil {
			return 0, open, err
		}
		open.add(or.loopResult)
		open.lat = append(open.lat, or.lat...)
		open.svc = append(open.svc, or.svc...)
		open.late = append(open.late, or.late...)
	}
	o.attempted += cl.answered + cl.failed + open.answered + open.failed
	o.failed += cl.failed + open.failed
	if n := cl.retried + open.retried; n > 0 {
		o.notef("%s: %d stub re-sends after a %v timeout", p.name, n, stubTimeout)
	}
	return median(rates), open, nil
}

// checkServe settles the answer checks and holds the upstream traffic to
// what the cache must have sent: one exchange per distinct name asked
// (serve-hot: the 3600 s delegation TTL outlives the run, so no name is
// fetched twice; serve-miss: every name is new, so upstream exchanges
// equal stub queries).
func (s *serveSetup) checkServe(o *outcome) {
	s.ver.settle()
	o.problems = append(o.problems, s.ver.problems()...)
	up, distinct := s.upstreamQueries(), s.names.distinct()
	o.check(up == distinct, "upstream queries %d, distinct names asked %d", up, distinct)
}

// noteOpen prints the open-loop figures and marks a run whose sender
// fell behind its schedule.
func noteOpen(o *outcome, p serveProfile, open openResult) {
	lat, late := durationsMs(open.lat), durationsMs(open.late)
	svc := durationsMs(open.svc)
	o.notef("%s open loop at %.0f q/s: %d answered, latency from due time p50 %.3f ms, p99 %.3f ms; from send time p50 %.3f ms, p99 %.3f ms",
		p.name, p.rate, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), quantile(svc, 0.5), quantile(svc, 0.99))
	o.notef("%s sender lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends",
		p.name, quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1), len(late))
	if behindSchedule(open.late) {
		o.notef("SENDER BEHIND SCHEDULE: the open-loop sender ran late; latency includes its delay")
	}
}

func runServe(e *env, p serveProfile) (*outcome, error) {
	o := newOutcome()
	build := func(tr *tracer, traced bool) (*serveSetup, error) {
		s, err := buildServe(p, e.seed, tr, traced)
		if err != nil {
			return nil, err
		}
		if err := s.warm(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
	s, setupS, err := timedSetup(func() (*serveSetup, error) { return build(nil, false) }, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS
	s.ver.settle() // check the warm-up answers; timed repeats then compare bytes

	if p.miss {
		if err := s.fill(e.small); err != nil {
			s.close()
			return nil, err
		}
	}
	d := time.Duration(e.seconds * float64(time.Second))
	if e.traced {
		d /= 2
	}
	capacity, open, err := s.phases(p, d, o)
	s.close()
	if err != nil {
		return nil, err
	}
	s.checkServe(o)
	o.notef("%s closed loop: %.0f answered/s median over 250 ms slices; %d senders × %d sockets, %d queries outstanding per sender",
		p.name, capacity, runtime.NumCPU(), socketsPerSender, serveWindow)
	noteOpen(o, p, open)
	if !e.traced {
		o.metrics["throughput_per_s"] = capacity
		o.metrics["latency_p50_ms"] = quantile(durationsMs(open.lat), 0.5)
		return o, nil
	}

	// Traced half on a fresh set-up with telemetry and timed transports.
	ts, err := build(e.tracer, true)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	ts.ver.settle()
	if p.miss {
		if err := ts.fill(e.small); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	queries0 := o.attempted
	tcap, topen, err := ts.phases(p, d, o)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m := o.metrics
	m["runtime.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(o.attempted-queries0)
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["trace.overhead_pct"] = (capacity/tcap - 1) * 100
	late := durationsMs(topen.late)
	m["loadgen.late_p99_ms"] = quantile(late, 0.99)
	m["loadgen.late_max_ms"] = quantile(late, 1)
	ts.udpengineMetrics(m)
	if err := ts.inProcessPasses(m, e.small); err != nil {
		return nil, err
	}
	rep := ts.rec.Report()
	m["recursor.evictions"] = float64(rep.Evictions)
	m["recursor.hit_ratio"] = rep.HitRate()
	m["recursor.singleflight_shared"] = float64(rep.Singleflight)
	m["recursor.upstream_per_query"] = float64(ts.upstreamQueries()) / float64(rep.StubQueries)
	ts.checkServe(o)
	return o, nil
}

// udpengineMetrics reads the recursor's socket engine counters.
func (s *serveSetup) udpengineMetrics(m map[string]float64) {
	var recvd uint64
	for i := 0; i < min(runtime.GOMAXPROCS(0), 8); i++ {
		recvd += s.reg.Counter(fmt.Sprintf("udpengine_datagrams_total{socket=%q}", fmt.Sprint(i))).Value()
	}
	sent := s.reg.Counter("udpengine_sent_datagrams_total").Value()
	calls := s.reg.Counter("udpengine_recv_syscalls_total").Value() + s.reg.Counter("udpengine_send_syscalls_total").Value()
	if recvd+sent > 0 {
		m["udpengine.syscalls_per_datagram"] = float64(calls) / float64(recvd+sent)
	}
	if h := s.reg.ValueHistogram("udpengine_batch_size"); h.Count() > 0 {
		m["udpengine.batch_size_mean"] = float64(h.Sum()) / float64(h.Count())
	}
	if h := s.reg.ValueHistogram("udpengine_gso_segments"); h.Count() > 0 {
		m["udpengine.gso_segments_per_send"] = float64(h.Sum()) / float64(h.Count())
	}
}

// inProcessPasses calls the recursor directly: HandleWire on fresh names
// (misses, each an upstream exchange), then on the same names again
// (hits: they are the newest cache entries, which neither workload's
// eviction reaches), then replays the recorded upstream questions
// through an authoritative engine.
func (s *serveSetup) inProcessPasses(m map[string]float64, small bool) error {
	misses, hitRounds := 2000, 100
	if small {
		misses, hitRounds = 50, 40
	}
	sc := recursor.NewScratch()
	dst := make([]byte, 0, 4096)
	wires := make([][]byte, misses)
	var total time.Duration
	for i := range wires {
		q := s.names.fresh(i)
		wire, err := packQuery(uint16(i), q.name)
		if err != nil {
			return err
		}
		wires[i] = wire
		t0 := time.Now()
		dst = s.rec.HandleWire(wire, dst[:0], false, sc)
		t1 := time.Now()
		total += t1.Sub(t0)
		s.tr.record(0, uint64(q.key), "recursor.HandleWire.miss", t0, t1)
		s.ver.observe(dst, wire, q)
	}
	m["recursor.miss_us"] = float64(total) / float64(misses) / 1e3

	start := time.Now()
	for r := 0; r < hitRounds; r++ {
		for _, wire := range wires {
			dst = s.rec.HandleWire(wire, dst[:0], false, sc)
		}
	}
	end := time.Now()
	s.tr.record(0, 0, "recursor.HandleWire×hits", start, end)
	m["recursor.hit_ns"] = float64(end.Sub(start)) / float64(hitRounds*misses)

	rtts, qs := s.xlog.snapshot()
	us := make([]float64, len(rtts))
	for i, d := range rtts {
		us[i] = float64(d) / float64(time.Microsecond)
	}
	m["resolver.exchange_us_p50"] = quantile(us, 0.5)
	m["resolver.exchange_us_p99"] = quantile(us, 0.99)
	eng := authserver.NewEngine(s.zone)
	client := netip.AddrFrom4([4]byte{127, 0, 0, 1})
	buf := make([]byte, 0, 4096)
	start = time.Now()
	for _, q := range qs {
		r := eng.Handle(q, client, false)
		var err error
		if buf, err = authserver.AppendResponse(buf[:0], r, q, false); err != nil {
			return err
		}
	}
	if len(qs) > 0 {
		m["authserver.handle_ns"] = float64(time.Since(start)) / float64(len(qs))
	}
	return nil
}
