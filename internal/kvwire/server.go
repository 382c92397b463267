package kvwire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// Server speaks the framed binary protocol over raw TCP connections,
// answering every request frame through the shared Core. Connections
// are persistent and multiplexed: each request frame is handled in its
// own goroutine and its response frame is written whenever it
// completes, so a pipelining client sees out-of-order responses keyed
// by request id.
type Server struct {
	core    *Core
	metrics *wireMetrics

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup // in-flight request frames
	closed   atomic.Bool
}

// ServerOptions tune a wire server.
type ServerOptions struct {
	// Metrics registers the kvwire_* series when non-nil.
	Metrics *obs.Registry
}

// shedRetryAfter is the backoff hint an admission-shed error frame
// carries.
const shedRetryAfter = time.Second

// wireMetrics is the kvwire_* series; obs handles are nil-safe, so a
// server without a registry pays two nil checks per frame and nothing
// else.
type wireMetrics struct {
	connsOpen  *obs.Gauge
	framesIn   *obs.Counter
	framesOut  *obs.Counter
	pipeline   *obs.Gauge
	decodeErrs *obs.Counter
	scanPages  *obs.Counter
	// Records with fields written to response and page frames, by how
	// their field section was produced: copied from the stored image,
	// or re-encoded from the map (merge-updated records only — a write
	// path that forgets to build the image shows up here).
	encodedImage *obs.Counter
	encodedMap   *obs.Counter
}

// encodeTally counts one frame's emitted records by path.
type encodeTally struct{ image, mapped int64 }

func (t *encodeTally) add(fields map[string][]byte, image []byte) {
	switch {
	case image != nil:
		t.image++
	case fields != nil:
		t.mapped++
	}
}

func (m *wireMetrics) encoded(t encodeTally) {
	m.encodedImage.Add(t.image)
	m.encodedMap.Add(t.mapped)
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	reg.Help("kvwire_conns_open", "Binary wire connections currently open.")
	reg.Help("kvwire_frames_total", "Frames moved over the binary wire protocol, by direction.")
	reg.Help("kvwire_pipeline_depth", "Request frames currently in flight across all wire connections.")
	reg.Help("kvwire_decode_errors_total", "Wire frames the server failed to parse (the connection is closed after each).")
	reg.Help("kvwire_scan_chunks_total", "Scan page frames sent to wire clients.")
	reg.Help("kvwire_records_encoded_total", "Records with fields written to response and page frames, by path: image = the stored field section copied as it stands, map = re-encoded from the field map (merge-updated records).")
	return &wireMetrics{
		connsOpen:    reg.Gauge("kvwire_conns_open"),
		framesIn:     reg.Counter("kvwire_frames_total", "dir", "in"),
		framesOut:    reg.Counter("kvwire_frames_total", "dir", "out"),
		pipeline:     reg.Gauge("kvwire_pipeline_depth"),
		decodeErrs:   reg.Counter("kvwire_decode_errors_total"),
		scanPages:    reg.Counter("kvwire_scan_chunks_total"),
		encodedImage: reg.Counter("kvwire_records_encoded_total", "path", "image"),
		encodedMap:   reg.Counter("kvwire_records_encoded_total", "path", "map"),
	}
}

// NewServer builds a wire server over core. Pass the same Core to the
// HTTP front end so both transports share one admission limit and
// ownership gate.
func NewServer(core *Core, opts ServerOptions) *Server {
	return &Server{
		core:    core,
		metrics: newWireMetrics(opts.Metrics),
		lns:     make(map[net.Listener]struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until the listener fails or the
// server shuts down (which returns nil); once shut down, it closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("kvwire: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

// serveConn owns one connection: verify the magic, echo it, then read
// request frames until the peer goes away, dispatching each to its own
// handler goroutine.
func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.metrics.connsOpen.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	c := &serverConn{conn: conn, ctx: ctx}
	defer func() {
		// The read side is done (peer EOF or shutdown's CloseRead), but
		// decoded requests may still be executing: their responses can
		// still reach the peer, so the full close waits for them. A scan
		// page still reading the engine stops at its next engine page.
		cancel()
		c.handlers.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics.connsOpen.Add(-1)
		conn.Close()
	}()

	// One buffered reader serves the magic and every frame after it: a
	// frame's header and payload (and whatever the peer pipelined
	// behind them) arrive in one read of the socket.
	br := bufio.NewReader(conn)
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		if err == nil {
			s.metrics.decodeErrs.Inc()
		}
		return
	}
	if _, err := conn.Write([]byte(Magic)); err != nil {
		return
	}

	var payload []byte
	var dec fieldDecoder
	for {
		var typ byte
		var id uint64
		var err error
		typ, id, payload, err = ReadFrame(br, payload)
		if err != nil {
			if err != io.EOF && !s.closed.Load() {
				s.metrics.decodeErrs.Inc()
			}
			return
		}
		s.metrics.framesIn.Inc()
		switch typ {
		case frameRequest:
			deadlineMs, ops, err := dec.request(payload, nil)
			if err != nil {
				s.metrics.decodeErrs.Inc()
				return
			}
			s.handlers.Add(1)
			c.handlers.Add(1)
			s.metrics.pipeline.Add(1)
			go func(id uint64, deadlineMs uint64, ops []Op) {
				defer s.handlers.Done()
				defer c.handlers.Done()
				defer s.metrics.pipeline.Add(-1)
				s.handleRequest(c, id, deadlineMs, ops)
			}(id, deadlineMs, ops)
		case frameScanReq:
			req, err := DecodeScanRequest(payload)
			if err != nil {
				s.metrics.decodeErrs.Inc()
				return
			}
			s.handlers.Add(1)
			c.handlers.Add(1)
			s.metrics.pipeline.Add(1)
			go func(id uint64, req *ScanRequest) {
				defer s.handlers.Done()
				defer c.handlers.Done()
				defer s.metrics.pipeline.Add(-1)
				s.handleScan(c, id, req)
			}(id, &req)
		default:
			s.metrics.decodeErrs.Inc()
			return
		}
	}
}

// serverConn serializes response writes on one connection and counts
// its in-flight handlers so the close waits for their responses. ctx
// is cancelled when the read side dies, so a scan page whose reader has
// gone stops reading the engine.
type serverConn struct {
	conn     net.Conn
	ctx      context.Context
	handlers sync.WaitGroup
	wmu      sync.Mutex
	wbuf     []byte
}

func (s *Server) handleRequest(c *serverConn, id uint64, deadlineMs uint64, ops []Op) {
	release, ok := s.core.AcquireBatch()
	if !ok {
		s.writeFrame(c, func(buf []byte) []byte {
			return AppendError(buf, id, 429, uint64(shedRetryAfter/time.Second), "too many in-flight batches")
		})
		return
	}
	defer release()
	ctx := context.Background()
	if deadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMs)*time.Millisecond)
		defer cancel()
	}
	if len(ops) == 0 {
		s.writeFrame(c, func(buf []byte) []byte {
			return AppendError(buf, id, 400, 0, "empty batch")
		})
		return
	}
	res := resultsPool.Get().(*[]Result)
	if cap(*res) < len(ops) {
		*res = make([]Result, len(ops))
	} else {
		*res = (*res)[:len(ops)]
	}
	s.core.ExecBatchInto(ctx, ops, *res)
	s.writeFrame(c, func(buf []byte) []byte {
		return AppendResponse(buf, id, *res)
	})
	var tally encodeTally
	for i := range *res {
		tally.add((*res)[i].Fields, (*res)[i].image)
	}
	s.metrics.encoded(tally)
	clear(*res)
	*res = (*res)[:0]
	resultsPool.Put(res)
}

var resultsPool = sync.Pool{New: func() any {
	res := make([]Result, 0, 64)
	return &res
}}

// handleScan answers one scan-request frame with exactly one frame: the
// page Core.ScanPage fills, encoded record by record as the engine
// hands them over and cut once the encoded records reach
// scanPageBytes, or an error frame when the scan cannot run. The room
// it reports is the records of the mean size so far that the bytes left
// take, counting the one that crosses the bound. The page is built in a
// pooled buffer, not under the write lock, so the engine read never
// holds up the responses pipelined next to it.
func (s *Server) handleScan(c *serverConn, id uint64, req *ScanRequest) {
	bp := pageBufs.Get().(*[]byte)
	buf := appendPageHead((*bp)[:0], id)
	head := len(buf)
	n := 0
	var tally encodeTally
	mapVer, next, err := s.core.ScanPage(c.ctx, req, func(kv kvstore.VersionedKV) int {
		r := kv.Record
		buf = appendStreamRecord(buf, kv.Key, r.Version, r.CommitTS, r.Image(), r.Fields)
		tally.add(r.Fields, r.Image())
		n++
		if len(buf) >= scanPageBytes {
			return 0
		}
		used := len(buf) - head
		return ((scanPageBytes-len(buf))*n + used - 1) / used
	})
	if err != nil {
		res := ErrResult(err)
		s.writeFrame(c, func(buf []byte) []byte {
			return AppendError(buf, id, res.Status, 0, res.Err)
		})
	} else {
		buf = finishPage(buf, 0, n, mapVer, next)
		// Counted before the write, so a client that has seen the page
		// never reads a counter that has not.
		s.metrics.scanPages.Inc()
		s.metrics.encoded(tally)
		c.wmu.Lock()
		s.send(c, buf)
		c.wmu.Unlock()
	}
	*bp = buf
	pageBufs.Put(bp)
}

// pageBufs holds the buffers scan pages are built in.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeFrame encodes into the connection's pooled buffer and sends it
// under the write lock.
func (s *Server) writeFrame(c *serverConn, encode func([]byte) []byte) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = encode(c.wbuf[:0])
	s.send(c, c.wbuf)
}

// send writes one frame (one syscall per frame; the frame is the flush
// unit); the caller holds the write lock. The frame is counted before
// the write, so a client that has read it never reads a counter that
// has not. A peer that is gone is noticed by the read loop, so the
// error is not the writer's to handle.
func (s *Server) send(c *serverConn, frame []byte) {
	s.metrics.framesOut.Inc()
	c.conn.Write(frame)
}

// Shutdown drains the server: stop accepting, stop reading new request
// frames, wait (bounded by ctx) for in-flight handlers to write their
// responses, then close every connection. A pipelined request that was
// already decoded when Shutdown began gets its response.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	// Half-close the read side so conn readers see EOF and stop
	// accepting new frames while the write side stays usable for
	// in-flight responses.
	for conn := range s.conns {
		if cr, ok := conn.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("kvwire: shutdown: %w", ctx.Err())
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	return err
}

// Close is Shutdown with no grace.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
	return nil
}
