package main

import (
	"encoding/binary"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/udpengine"
)

// The benchmark's stub clients. Load comes from one sender goroutine per
// core. Each sender spreads its queries over socketsPerSender sockets:
// the recursor's SO_REUSEPORT sockets are picked by a hash of the
// client's address and port, so with one socket per sender both senders
// land on the same recursor socket in about half the runs, halving the
// measured capacity of a worker-bound path such as serve-miss. Rotating
// over several source ports spreads every run's load the same way.
const socketsPerSender = 32

// packQuery builds a plain (no EDNS) A query, as workload.StubLoad sends.
func packQuery(id uint16, name string) ([]byte, error) {
	return dnswire.NewQuery(id, name, dnswire.TypeA).Pack()
}

// dialStub opens one stub socket to the recursor.
func dialStub(addr netip.AddrPort) (*net.UDPConn, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(4 << 20) // best effort: a short buffer only risks re-sends
	_ = conn.SetWriteBuffer(4 << 20)
	return conn, nil
}

// loopResult is one client phase's counts.
type loopResult struct {
	answered, failed, retried uint64
}

func (r *loopResult) add(o loopResult) {
	r.answered += o.answered
	r.failed += o.failed
	r.retried += o.retried
}

// windowClient is one closed-loop stub socket: it sends a window of
// queries in one sendmmsg, collects their answers, and re-sends what a
// timeout left unanswered before the next window goes out.
type windowClient struct {
	conn    *net.UDPConn
	cb      *udpengine.ClientBatch
	ver     *verifier
	nextID  uint16
	pending map[uint16]int // query ID → index in the window
	wires   [][]byte
}

func newWindowClient(addr netip.AddrPort, ver *verifier) (*windowClient, error) {
	conn, err := dialStub(addr)
	if err != nil {
		return nil, err
	}
	cb, err := udpengine.NewClientBatch(conn, serveWindow, 1024) // answers here stay under 512 bytes
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &windowClient{conn: conn, cb: cb, ver: ver, pending: make(map[uint16]int)}, nil
}

func (c *windowClient) close() { c.conn.Close() }

// exchange sends qs (at most serveWindow) and waits for every answer.
func (c *windowClient) exchange(qs []stubQuery, res *loopResult) error {
	clear(c.pending)
	c.wires = c.wires[:0]
	for i, q := range qs {
		c.nextID++
		wire, err := packQuery(c.nextID, q.name)
		if err != nil {
			return err
		}
		c.pending[c.nextID] = i
		c.wires = append(c.wires, wire)
	}
	for attempt := 0; attempt <= stubRetries && len(c.pending) > 0; attempt++ {
		if attempt > 0 {
			res.retried += uint64(len(c.pending))
		}
		for _, i := range c.pending {
			if err := c.cb.Queue(c.wires[i]); err != nil {
				return err
			}
		}
		if err := c.cb.Flush(); err != nil {
			return err
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(stubTimeout)); err != nil {
			return err
		}
		for len(c.pending) > 0 {
			pkts, err := c.cb.Recv()
			if err != nil {
				break // deadline: re-send what is missing
			}
			for _, pkt := range pkts {
				if len(pkt) < dnswire.HeaderLen {
					continue
				}
				i, ok := c.pending[binary.BigEndian.Uint16(pkt)]
				if !ok {
					continue // a late duplicate of an answered query
				}
				delete(c.pending, binary.BigEndian.Uint16(pkt))
				c.ver.observe(pkt, c.wires[i], qs[i])
				res.answered++
			}
		}
	}
	res.failed += uint64(len(c.pending))
	return nil
}

// closedLoopQueries asks a fixed list of queries through one window
// client (the warm-up).
func closedLoopQueries(addr netip.AddrPort, qs []stubQuery, ver *verifier) (loopResult, error) {
	var res loopResult
	c, err := newWindowClient(addr, ver)
	if err != nil {
		return res, err
	}
	defer c.close()
	for i := 0; i < len(qs); i += serveWindow {
		if err := c.exchange(qs[i:min(i+serveWindow, len(qs))], &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// closedLoop keeps one window of queries outstanding per sender for d,
// each window on the sender's next socket, and returns the answered rate
// of each 250 ms slice, per second of CPU time given (see cpuMark).
func closedLoop(s *serveSetup, phase int, d time.Duration) ([]float64, loopResult, error) {
	senders := runtime.NumCPU()
	var answered atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	results := make([]loopResult, senders)
	errs := make([]error, senders)
	clients := make([][]*windowClient, senders)
	defer func() {
		for _, cs := range clients {
			for _, c := range cs {
				c.close()
			}
		}
	}()
	for w := range clients {
		for i := 0; i < socketsPerSender; i++ {
			c, err := newWindowClient(s.srv.Addr(), s.ver)
			if err != nil {
				return nil, loopResult{}, err
			}
			clients[w] = append(clients[w], c)
		}
	}
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := s.names.stream(phase, w)
			qs := make([]stubQuery, serveWindow)
			for n := 0; !stop.Load(); n++ {
				for i := range qs {
					qs[i] = st.next()
				}
				var r loopResult
				start := time.Now()
				if err := clients[w][n%socketsPerSender].exchange(qs, &r); err != nil {
					errs[w] = err
					return
				}
				s.tr.record(0, uint64(w)<<32|uint64(n), "stub.window", start, time.Now())
				results[w].add(r)
				answered.Add(r.answered)
			}
		}(w)
	}
	const slice = 250 * time.Millisecond
	var rates []float64
	last, lastM := answered.Load(), markCPU()
	for end := lastM.wall.Add(d); time.Now().Before(end); {
		time.Sleep(slice)
		m, n := markCPU(), answered.Load()
		_, given := lastM.to(m)
		rates = append(rates, float64(n-last)/given.Seconds())
		last, lastM = n, m
	}
	stop.Store(true)
	wg.Wait()
	var total loopResult
	for w := range results {
		if errs[w] != nil {
			return nil, total, errs[w]
		}
		total.add(results[w])
	}
	return rates, total, nil
}

// openResult is one open-loop phase.
type openResult struct {
	loopResult
	lat  []time.Duration // from each query's scheduled send time
	svc  []time.Duration // from each query's actual send time
	late []time.Duration // how late the sender sent each query
}

// sentQuery is an open-loop query awaiting its answer.
type sentQuery struct {
	q         stubQuery
	due, sent time.Time
	wire      []byte
}

// openSocket is one open-loop socket: its sender fills slots, its
// receiver goroutine clears them.
type openSocket struct {
	conn   *net.UDPConn
	nextID uint16 // touched by the sender only
	mu     sync.Mutex
	slots  map[uint16]*sentQuery
	lat    []time.Duration
	svc    []time.Duration
}

// openLoop sends queries at rate per second for d on a fixed schedule —
// query i is due at start + i/rate — split across the senders, and times
// every answer from its query's due time, so a stall of the server also
// delays the queries scheduled behind it.
func openLoop(s *serveSetup, phase int, rate float64, d time.Duration) (openResult, error) {
	senders := runtime.NumCPU()
	var res openResult
	var socks []*openSocket
	defer func() {
		for _, o := range socks {
			o.conn.Close()
		}
	}()
	for i := 0; i < senders*socketsPerSender; i++ {
		conn, err := dialStub(s.srv.Addr())
		if err != nil {
			return res, err
		}
		socks = append(socks, &openSocket{conn: conn, slots: make(map[uint16]*sentQuery)})
	}

	var recvWG sync.WaitGroup
	for _, o := range socks {
		recvWG.Add(1)
		go func(o *openSocket) {
			defer recvWG.Done()
			buf := make([]byte, 4096)
			for {
				n, err := o.conn.Read(buf)
				if err != nil {
					return // the deadline set once every answer is in
				}
				now := time.Now()
				if n < dnswire.HeaderLen {
					continue
				}
				id := binary.BigEndian.Uint16(buf)
				o.mu.Lock()
				sq, ok := o.slots[id]
				if ok {
					delete(o.slots, id)
					o.lat = append(o.lat, now.Sub(sq.due))
					o.svc = append(o.svc, now.Sub(sq.sent))
				}
				o.mu.Unlock()
				if ok {
					s.ver.observe(buf[:n], sq.wire, sq.q)
					s.tr.record(0, uint64(sq.q.key), "stub.query", sq.due, now)
				}
			}
		}(o)
	}

	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	start := time.Now().Add(10 * time.Millisecond)
	lates := make([][]time.Duration, senders)
	errs := make([]error, senders)
	var sendWG sync.WaitGroup
	for w := 0; w < senders; w++ {
		sendWG.Add(1)
		go func(w int) {
			defer sendWG.Done()
			mine := socks[w*socketsPerSender : (w+1)*socketsPerSender]
			st := s.names.stream(phase, w)
			for i, n := w, 0; i < total; i, n = i+senders, n+1 {
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				o := mine[n%socketsPerSender]
				q := st.next()
				o.nextID++
				wire, err := packQuery(o.nextID, q.name)
				if err != nil {
					errs[w] = err
					return
				}
				sent := time.Now()
				o.mu.Lock()
				o.slots[o.nextID] = &sentQuery{q: q, due: due, sent: sent, wire: wire}
				o.mu.Unlock()
				lates[w] = append(lates[w], sent.Sub(due))
				if _, err := o.conn.Write(wire); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	sendWG.Wait()
	// Let the last answers arrive, then stop the receivers.
	for deadline := time.Now().Add(stubTimeout); time.Now().Before(deadline) && outstanding(socks) > 0; {
		time.Sleep(5 * time.Millisecond)
	}
	for _, o := range socks {
		_ = o.conn.SetReadDeadline(time.Now())
	}
	recvWG.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	// Re-send what went unanswered, one at a time, as a stub retrying
	// after its timeout would; the latency still counts from the due
	// time of the first send.
	for _, o := range socks {
		for id, sq := range o.slots {
			if err := retryOne(o, id, sq, s.ver, &res); err != nil {
				return res, err
			}
		}
	}
	for _, o := range socks {
		res.lat = append(res.lat, o.lat...)
		res.svc = append(res.svc, o.svc...)
	}
	for _, l := range lates {
		res.late = append(res.late, l...)
	}
	res.answered += uint64(len(res.lat))
	return res, nil
}

func outstanding(socks []*openSocket) int {
	n := 0
	for _, o := range socks {
		o.mu.Lock()
		n += len(o.slots)
		o.mu.Unlock()
	}
	return n
}

// retryOne re-sends one unanswered open-loop query up to stubRetries
// times, counting it as failed when no answer comes.
func retryOne(o *openSocket, id uint16, sq *sentQuery, ver *verifier, res *openResult) error {
	buf := make([]byte, 4096)
	for attempt := 0; attempt < stubRetries; attempt++ {
		res.retried++
		if _, err := o.conn.Write(sq.wire); err != nil {
			return err
		}
		if err := o.conn.SetReadDeadline(time.Now().Add(stubTimeout)); err != nil {
			return err
		}
		for {
			n, err := o.conn.Read(buf)
			if err != nil {
				break
			}
			if n >= dnswire.HeaderLen && binary.BigEndian.Uint16(buf) == id {
				o.lat = append(o.lat, time.Since(sq.due))
				o.svc = append(o.svc, time.Since(sq.sent))
				ver.observe(buf[:n], sq.wire, sq.q)
				return nil
			}
		}
	}
	res.failed++
	return nil
}
