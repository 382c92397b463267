package history

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"ycsbt/internal/obs"
)

// FormatVersion is the NDJSON history format version written in the
// header line.
const FormatVersion = 1

// sinkQueue is the channel depth (records, not bytes) between
// recording threads and the writer goroutine. When the writer falls
// behind and the queue fills, records are dropped and counted —
// capture never blocks the benchmark or grows memory unboundedly.
const sinkQueue = 1 << 14

// headerLine is the first line of every history file.
type headerLine struct {
	T       string `json:"t"` // "h"
	Version int    `json:"version"`
}

// txnLine is one full transaction record ("x" line).
type txnLine struct {
	T string `json:"t"` // "x"
	TxnRecord
}

// SinkOptions tunes a Sink.
type SinkOptions struct {
	// Metrics registers history_events_total / history_dropped_total
	// on the given registry (nil = no instrumentation).
	Metrics *obs.Registry
}

// Sink is the durable history sink: a bounded queue drained by one
// writer goroutine that streams NDJSON lines to w. Memory stays
// bounded regardless of run length; enqueue is lock-light (an RLock
// plus a channel send) and never blocks.
type Sink struct {
	mu     sync.RWMutex // guards closed against concurrent enqueues
	closed bool
	ch     chan *TxnRecord
	done   chan struct{}

	w    io.Writer
	c    io.Closer // nil when the sink does not own w
	werr atomic.Value

	events  atomic.Int64
	dropped atomic.Int64

	obsEvents  *obs.Counter
	obsDropped *obs.Counter
}

// NewSink streams history lines to w. When w is also an io.Closer the
// sink closes it on Close.
func NewSink(w io.Writer, opts SinkOptions) *Sink {
	s := &Sink{
		w:    w,
		ch:   make(chan *TxnRecord, sinkQueue),
		done: make(chan struct{}),
	}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	if opts.Metrics != nil {
		opts.Metrics.Help("history_events_total", "History records accepted by the sink.")
		opts.Metrics.Help("history_dropped_total", "History records dropped because the sink queue was full.")
		s.obsEvents = opts.Metrics.Counter("history_events_total")
		s.obsDropped = opts.Metrics.Counter("history_dropped_total")
	}
	go s.writeLoop()
	return s
}

// OpenFile creates (truncating) a history file at path and returns a
// sink streaming to it.
func OpenFile(path string, opts SinkOptions) (*Sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return NewSink(f, opts), nil
}

// RecordTxn enqueues one finished transaction. It never blocks: when
// the queue is full the record is dropped and counted.
func (s *Sink) RecordTxn(rec *TxnRecord) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.closed {
		select {
		case s.ch <- rec:
			s.events.Add(1)
			s.obsEvents.Inc()
			return
		default:
		}
	}
	s.dropped.Add(1)
	s.obsDropped.Inc()
}

// writeLoop is the single writer: it owns the buffered writer and a
// reused encode buffer, so the encoding path takes no locks and
// amortizes to zero allocations. Lines are marshaled by hand (the
// format is flat and fixed) — encoding/json reflection here costs
// about a microsecond per record, which the write-behind goroutine
// would charge straight against benchmark throughput on saturated
// machines.
func (s *Sink) writeLoop() {
	defer close(s.done)
	bw := bufio.NewWriterSize(s.w, 1<<16)
	buf := make([]byte, 0, 4096)
	buf = append(buf, `{"t":"h","version":`...)
	buf = strconv.AppendInt(buf, FormatVersion, 10)
	buf = append(buf, '}', '\n')
	if _, err := bw.Write(buf); err != nil {
		s.werr.Store(err)
	}
	for rec := range s.ch {
		sortOps(rec.Ops)
		buf = appendTxnLine(buf[:0], rec)
		if _, err := bw.Write(buf); err != nil {
			s.werr.Store(err)
		}
	}
	if err := bw.Flush(); err != nil {
		s.werr.Store(err)
	}
}

// appendTxnLine appends one "x" line, mirroring txnLine's JSON shape.
func appendTxnLine(b []byte, r *TxnRecord) []byte {
	b = append(b, `{"t":"x","id":`...)
	b = appendJSONString(b, r.ID)
	b = append(b, `,"sess":`...)
	b = strconv.AppendInt(b, int64(r.Session), 10)
	if r.StartTS != 0 {
		b = append(b, `,"start":`...)
		b = strconv.AppendInt(b, r.StartTS, 10)
	}
	if r.CommitTS != 0 {
		b = append(b, `,"commit":`...)
		b = strconv.AppendInt(b, r.CommitTS, 10)
	}
	b = append(b, `,"out":`...)
	b = appendJSONString(b, r.Outcome)
	b = append(b, `,"ops":[`...)
	for i := range r.Ops {
		if i > 0 {
			b = append(b, ',')
		}
		op := &r.Ops[i]
		b = append(b, `{"op":`...)
		b = appendJSONString(b, op.Kind)
		if op.Store != "" {
			b = append(b, `,"st":`...)
			b = appendJSONString(b, op.Store)
		}
		if op.Table != "" {
			b = append(b, `,"tab":`...)
			b = appendJSONString(b, op.Table)
		}
		b = append(b, `,"key":`...)
		b = appendJSONString(b, op.Key)
		if op.Ver != 0 {
			b = append(b, `,"ver":`...)
			b = strconv.AppendUint(b, op.Ver, 10)
		}
		b = append(b, '}')
	}
	return append(b, ']', '}', '\n')
}

// appendJSONString appends s as a JSON string literal: quotes,
// backslashes and control characters are escaped; everything else
// passes through byte-for-byte.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// sortOps orders a record's ops deterministically — reads before
// writes, each by (store, table, key) — so identical runs produce
// byte-identical records regardless of map iteration order upstream.
func sortOps(ops []Op) {
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		ar, br := a.Kind == OpRead, b.Kind == OpRead
		if ar != br {
			return ar
		}
		if a.Store != b.Store {
			return a.Store < b.Store
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Key < b.Key
	})
}

// Close drains the queue, flushes the writer, closes the underlying
// file (when the sink owns one) and returns the first write error.
// Close is idempotent; records arriving after Close are dropped.
func (s *Sink) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.ch)
	}
	<-s.done
	if !already && s.c != nil {
		if err := s.c.Close(); err != nil && s.werr.Load() == nil {
			s.werr.Store(err)
		}
	}
	if err, ok := s.werr.Load().(error); ok {
		return err
	}
	return nil
}

// Stats returns how many records the sink accepted and dropped.
func (s *Sink) Stats() (events, dropped int64) {
	return s.events.Load(), s.dropped.Load()
}

// MemorySink retains records in memory — the TxnSink for tests.
type MemorySink struct {
	mu   sync.Mutex
	recs []*TxnRecord
}

// RecordTxn implements TxnSink.
func (m *MemorySink) RecordTxn(rec *TxnRecord) {
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
}

// Records returns the retained records.
func (m *MemorySink) Records() []*TxnRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*TxnRecord(nil), m.recs...)
}

var _ TxnSink = (*Sink)(nil)
var _ TxnSink = (*MemorySink)(nil)
