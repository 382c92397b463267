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
// are persistent; each has one goroutine, which reads a frame, answers
// it and only then reads the next, so a peer that pipelines gets its
// answers in request order.
type Server struct {
	core    *Core
	metrics *wireMetrics

	mu       sync.Mutex
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup // connections being served
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
	accepted   *obs.Counter
	framesIn   *obs.Counter
	framesOut  *obs.Counter
	pipeline   *obs.Gauge
	decodeErrs *obs.Counter
	scanPages  *obs.Counter
	// Records with fields written to response and page frames, each
	// its stored image copied as it stands.
	encoded *obs.Counter
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	reg.Help("kvwire_conns_open", "Binary wire connections currently open.")
	reg.Help("kvwire_conns_accepted_total", "Binary wire connections accepted since start; a client pool that reuses its connections keeps this near its size.")
	reg.Help("kvwire_frames_total", "Frames moved over the binary wire protocol, by direction.")
	reg.Help("kvwire_pipeline_depth", "Request frames currently being answered across all wire connections.")
	reg.Help("kvwire_decode_errors_total", "Wire frames the server failed to parse (the connection is closed after each).")
	reg.Help("kvwire_scan_chunks_total", "Scan page frames sent to wire clients.")
	reg.Help("kvwire_records_encoded_total", "Records with fields written to response and page frames, each the stored field section copied as it stands.")
	return &wireMetrics{
		connsOpen:  reg.Gauge("kvwire_conns_open"),
		accepted:   reg.Counter("kvwire_conns_accepted_total"),
		framesIn:   reg.Counter("kvwire_frames_total", "dir", "in"),
		framesOut:  reg.Counter("kvwire_frames_total", "dir", "out"),
		pipeline:   reg.Gauge("kvwire_pipeline_depth"),
		decodeErrs: reg.Counter("kvwire_decode_errors_total"),
		scanPages:  reg.Counter("kvwire_scan_chunks_total"),
		encoded:    reg.Counter("kvwire_records_encoded_total"),
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
// request frames until the peer goes away, answering each before it
// reads the next.
//
// The connection counts in s.handlers from its registration, under
// s.mu after the closed check, to its close: Shutdown sets closed
// before it takes s.mu, so no connection joins the count once Shutdown
// can be waiting on it, and the per-frame path takes no server lock.
func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.handlers.Add(1)
	s.mu.Unlock()
	s.metrics.connsOpen.Add(1)
	s.metrics.accepted.Inc()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics.connsOpen.Add(-1)
		conn.Close()
		s.handlers.Done()
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

	c := &serverConn{conn: conn}
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
		var answer func()
		switch typ {
		case frameRequest:
			deadlineMs, ops, err := dec.request(payload, nil)
			if err != nil {
				s.metrics.decodeErrs.Inc()
				return
			}
			answer = func() { s.handleRequest(c, id, deadlineMs, ops) }
		case frameScanReq:
			req, err := DecodeScanRequest(payload)
			if err != nil {
				s.metrics.decodeErrs.Inc()
				return
			}
			answer = func() { s.handleScan(c, id, &req) }
		default:
			s.metrics.decodeErrs.Inc()
			return
		}
		s.metrics.pipeline.Add(1)
		answer()
		s.metrics.pipeline.Add(-1)
	}
}

// serverConn is one connection's write side, used only by its own
// goroutine.
type serverConn struct {
	conn net.Conn
	wbuf []byte
}

func (s *Server) handleRequest(c *serverConn, id uint64, deadlineMs uint64, ops []Op) {
	release, ok := s.core.AcquireBatch()
	if !ok {
		c.wbuf = AppendError(c.wbuf[:0], id, 429, uint64(shedRetryAfter/time.Second), "too many in-flight batches")
		s.send(c, c.wbuf)
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
		c.wbuf = AppendError(c.wbuf[:0], id, 400, 0, "empty batch")
		s.send(c, c.wbuf)
		return
	}
	res := resultsPool.Get().(*[]Result)
	if cap(*res) < len(ops) {
		*res = make([]Result, len(ops))
	} else {
		*res = (*res)[:len(ops)]
	}
	s.core.batchItems.Observe(float64(len(ops)))
	s.core.ExecBatchInto(ctx, ops, *res)
	c.wbuf = AppendResponse(c.wbuf[:0], id, *res)
	s.send(c, c.wbuf)
	var images int64
	for i := range *res {
		if (*res)[i].rec != nil {
			images++
		}
	}
	s.metrics.encoded.Add(images)
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
// take, counting the one that crosses the bound. The page needs no ctx
// of its own: scanPageBytes and ScanPageCap bound it. It is built in a
// pooled buffer, so a connection that once served a page does not keep
// a page-sized buffer.
func (s *Server) handleScan(c *serverConn, id uint64, req *ScanRequest) {
	bp := pageBufs.Get().(*[]byte)
	buf := appendPageHead((*bp)[:0], id)
	head := len(buf)
	n := 0
	mapVer, next, err := s.core.ScanPage(context.Background(), req, func(kv kvstore.VersionedKV) int {
		r := kv.Record
		buf = appendStreamRecord(buf, kv.Key, r.Version, r.CommitTS, r.Image())
		n++
		if len(buf) >= scanPageBytes {
			return 0
		}
		used := len(buf) - head
		return ((scanPageBytes-len(buf))*n + used - 1) / used
	})
	if err != nil {
		res := ErrResult(err)
		c.wbuf = AppendError(c.wbuf[:0], id, res.Status, 0, res.Err)
		s.send(c, c.wbuf)
	} else {
		buf = finishPage(buf, 0, n, mapVer, next)
		// Counted before the write, so a client that has seen the page
		// never reads a counter that has not.
		s.metrics.scanPages.Inc()
		s.metrics.encoded.Add(int64(n))
		s.send(c, buf)
	}
	*bp = buf
	pageBufs.Put(bp)
}

// pageBufs holds the buffers scan pages are built in.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

// send writes one frame (one syscall per frame; the frame is the flush
// unit). The frame is counted before the write, so a client that has
// read it never reads a counter that has not. A peer that is gone is
// noticed by the next read, so the error is not the writer's to handle.
func (s *Server) send(c *serverConn, frame []byte) {
	s.metrics.framesOut.Inc()
	c.conn.Write(frame)
}

// Shutdown drains the server: stop accepting, stop reading new request
// frames, wait (bounded by ctx) for every connection to answer what it
// already read and see its end of input, then close every connection
// left. A pipelined request already read off the socket when Shutdown
// began gets its response.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	s.mu.Lock()
	for ln := range s.lns {
		ln.Close()
	}
	// Half-close the read side so conn readers see EOF once they have
	// answered what they already read, while the write side stays
	// usable for those answers.
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
