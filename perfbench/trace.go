package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnscentral/internal/dnswire"
	"dnscentral/internal/pcapio"
	"dnscentral/internal/resolver"
	"dnscentral/internal/workload"
)

// span is one timed call, or batch of calls, at a layer boundary. Spans
// of one request (a trace→report cycle, a follow cycle, a stub query)
// share Req; Parent names the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. A nil *tracer records nothing, so untraced code paths
// pass nil and pay one branch.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, for a parent whose end is not known yet.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span with a fresh ID and returns the ID.
func (t *tracer) record(parent, req uint64, name string, start, end time.Time) uint64 {
	id := t.id()
	t.add(id, parent, req, name, start, end)
	return id
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimer accumulates the work items and busy time of one layer
// boundary. Safe for concurrent use.
type layerTimer struct {
	items atomic.Uint64
	ns    atomic.Int64
}

func (l *layerTimer) add(items uint64, d time.Duration) {
	l.items.Add(items)
	l.ns.Add(int64(d))
}

// nsPerItem returns the busy time per recorded item in nanoseconds.
func (l *layerTimer) nsPerItem() float64 {
	n := l.items.Load()
	if n == 0 {
		return 0
	}
	return float64(l.ns.Load()) / float64(n)
}

// timingSink wraps the pcap writer the generator feeds and times the
// pcapio layer. It implements workload.BatchSink, like the writer it
// wraps: a sink without AppendRecord/WriteBatch would make
// Generator.Run fall back to per-packet WritePacket, and the traced run
// would time a different path from the one users run.
type timingSink struct {
	w      *pcapio.Writer
	write  layerTimer
	tr     *tracer
	parent uint64
	req    uint64
}

var _ workload.BatchSink = (*timingSink)(nil)

func (s *timingSink) WritePacket(ts time.Time, data []byte) error {
	start := time.Now()
	err := s.w.WritePacket(ts, data)
	s.write.add(1, time.Since(start))
	return err
}

func (s *timingSink) AppendRecord(dst []byte, ts time.Time, data []byte) []byte {
	start := time.Now()
	dst = s.w.AppendRecord(dst, ts, data)
	s.write.add(1, time.Since(start))
	return dst
}

func (s *timingSink) WriteBatch(batch []byte) error {
	start := time.Now()
	err := s.w.WriteBatch(batch)
	end := time.Now()
	s.write.add(0, end.Sub(start))
	s.tr.record(s.parent, s.req, "pcapio.Writer.WriteBatch", start, end)
	return err
}

func (s *timingSink) Flush() error {
	start := time.Now()
	err := s.w.Flush()
	s.write.add(0, time.Since(start))
	return err
}

// timingReader wraps a packet reader and times every ReadPacket call.
type timingReader struct {
	r    pcapio.PacketReader
	read *layerTimer
}

func (t *timingReader) ReadPacket() (pcapio.Packet, error) {
	start := time.Now()
	pkt, err := t.r.ReadPacket()
	if err == nil {
		t.read.add(1, time.Since(start))
	}
	return pkt, err
}

// exchangeLog collects every upstream exchange a traced serving run
// makes: its duration, and the query sent, for replay against the
// authoritative engine.
type exchangeLog struct {
	mu      sync.Mutex
	rtts    []time.Duration
	queries []*dnswire.Message
}

func (l *exchangeLog) add(q *dnswire.Message, d time.Duration) {
	l.mu.Lock()
	l.rtts = append(l.rtts, d)
	l.queries = append(l.queries, q)
	l.mu.Unlock()
}

func (l *exchangeLog) snapshot() ([]time.Duration, []*dnswire.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]time.Duration(nil), l.rtts...), append([]*dnswire.Message(nil), l.queries...)
}

// timingTransport wraps an upstream's transport and times each
// exchange. It implements resolver.ContextTransport, like the
// NetTransport it wraps: without ExchangeContext,
// resolver.ExchangeContext would run every upstream exchange in a new
// goroutine and the traced run would time a different path.
type timingTransport struct {
	inner resolver.ContextTransport
	log   *exchangeLog
	tr    *tracer
}

var _ resolver.ContextTransport = (*timingTransport)(nil)

func (t *timingTransport) Exchange(q *dnswire.Message, tcp bool) (*dnswire.Message, time.Duration, error) {
	return t.ExchangeContext(context.Background(), q, tcp, 0)
}

func (t *timingTransport) ExchangeContext(ctx context.Context, q *dnswire.Message, tcp bool, timeout time.Duration) (*dnswire.Message, time.Duration, error) {
	start := time.Now()
	resp, rtt, err := t.inner.ExchangeContext(ctx, q, tcp, timeout)
	end := time.Now()
	t.log.add(q, end.Sub(start))
	t.tr.record(0, uint64(q.Header.ID), "resolver.Transport.ExchangeContext", start, end)
	return resp, rtt, err
}
