package kvwire

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
)

// Client side of the streaming protocol. A ScanStream consumes chunk
// frames the server produces, granting one credit back per chunk it
// finishes, so the amount buffered client-side is bounded by the
// window it asked for. Streams multiplex onto the same pooled
// connections as Exec — chunks interleave with pipelined responses.
// The client only ever consumes: a migration copy is a scan the
// destination opens on the source, so no stream runs the other way.

// clientStream is one stream's read-loop mailbox. Scan chunks ride ev
// (capacity = window, so a server exceeding its credits hits a full
// channel and the connection is failed as a protocol violator);
// terminal events — the peer's stream-end or a connection failure —
// ride term, capacity 1, which the read loop fills after everything
// sent before it is already in ev.
type clientStream struct {
	id uint64

	ev   chan streamEvent
	term chan streamEvent

	// cancelled marks a scan the consumer abandoned: the read loop
	// discards its remaining chunks and retires the id on the ack.
	cancelled atomic.Bool
}

// streamEvent is one read-loop delivery: a chunk, the peer's
// stream-end (end=true), or a connection failure (err != nil).
type streamEvent struct {
	recs   []StreamRecord
	mapVer int64
	end    bool
	status int
	count  uint64
	msg    string
	err    error
}

// deliverTerm hands the stream its terminal event. Capacity 1 and
// single-delivery discipline (the read loop unregisters the stream
// first) mean this never blocks.
func (st *clientStream) deliverTerm(e streamEvent) {
	select {
	case st.term <- e:
	default:
	}
}

// openStream registers a new stream on the conn, sharing the request
// id space (and the inflight count load-balanced by pick).
func (c *clientConn) openStream(window int) *clientStream {
	st := &clientStream{
		ev:   make(chan streamEvent, window),
		term: make(chan streamEvent, 1),
	}
	c.mu.Lock()
	c.nextID++
	st.id = c.nextID
	c.streams[st.id] = st
	c.mu.Unlock()
	c.inflight.Add(1)
	return st
}

// takeStream unregisters a stream (terminal frame received).
func (c *clientConn) takeStream(id uint64) *clientStream {
	c.mu.Lock()
	st, ok := c.streams[id]
	if ok {
		delete(c.streams, id)
	}
	c.mu.Unlock()
	if ok {
		c.inflight.Add(-1)
	}
	return st
}

// handleChunk decodes one scan chunk from the read loop into its
// stream's mailbox; with an owning decoder the records keep payload.
// Returning an error fails the connection.
func (c *clientConn) handleChunk(id uint64, payload []byte, dec *fieldDecoder) error {
	c.mu.Lock()
	st := c.streams[id]
	c.mu.Unlock()
	if st == nil {
		return fmt.Errorf("kvwire: chunk frame for unknown stream %d", id)
	}
	if st.cancelled.Load() {
		return nil // draining an abandoned scan
	}
	mapVer, recs, err := dec.chunk(payload, nil)
	if err != nil {
		return err
	}
	select {
	case st.ev <- streamEvent{recs: recs, mapVer: mapVer}:
		return nil
	default:
		return errors.New("kvwire: server exceeded granted stream credits")
	}
}

// handleStreamEnd routes one stream-end frame from the read loop.
// Returning an error fails the connection.
func (c *clientConn) handleStreamEnd(id uint64, payload []byte) error {
	status, mapVer, count, msg, err := DecodeStreamEnd(payload)
	if err != nil {
		return err
	}
	st := c.takeStream(id)
	if st == nil {
		return fmt.Errorf("kvwire: stream-end for unknown stream %d", id)
	}
	st.deliverTerm(streamEvent{end: true, status: status, mapVer: mapVer, count: count, msg: msg})
	return nil
}

// failStreams answers every open stream with the connection error.
func (c *clientConn) failStreams(err error) {
	c.mu.Lock()
	streams := c.streams
	c.streams = make(map[uint64]*clientStream)
	c.mu.Unlock()
	for _, st := range streams {
		c.inflight.Add(-1)
		st.deliverTerm(streamEvent{err: err})
	}
}

// writeStreamFrame shares the conn's write lock and buffer with
// request frames.
func (c *clientConn) writeStreamFrame(encode func([]byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = encode(c.wbuf[:0])
	_, err := c.conn.Write(c.wbuf)
	return err
}

// ScanStream iterates a streamed scan:
//
//	s, err := ep.Scan(ctx, &kvwire.ScanRequest{Table: "t", Count: 1000})
//	defer s.Close()
//	for s.Next() {
//		rec := s.Record()
//	}
//	err = s.Err()
//
// Next/Record/Err/Close must stay on one goroutine. Close is required
// unless Next returned false (it cancels the server's producer).
type ScanStream struct {
	e   *Endpoint
	c   *clientConn
	st  *clientStream
	ctx context.Context

	chunk  []StreamRecord
	idx    int
	mapVer int64
	done   bool
	err    error

	// term holds a terminal event recv took while chunks were still
	// buffered; delivered counts the records of every chunk received,
	// checked against the stream-end's declared count.
	term      *streamEvent
	delivered uint64
}

// StreamCountError reports a scan stream whose clean end declared a
// different record count than its chunks delivered: records were lost
// (or invented) between the server's producer and this consumer.
type StreamCountError struct {
	Delivered, Declared uint64
}

func (e *StreamCountError) Error() string {
	return fmt.Sprintf("kvwire: scan stream delivered %d records, its end frame declares %d", e.Delivered, e.Declared)
}

// Scan opens one streamed scan. req.Window chooses the credit window
// (0 = DefaultStreamWindow). Errors from the open itself (dial,
// handshake) wrap ErrUnavailable like Exec; stream-level failures
// surface from Next/Err.
func (e *Endpoint) Scan(ctx context.Context, req *ScanRequest) (*ScanStream, error) {
	c, err := e.pick(ctx)
	if err != nil {
		return nil, err
	}
	window := req.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	st := c.openStream(window)
	if err := c.writeStreamFrame(func(buf []byte) []byte {
		r := *req
		r.Window = window
		return AppendScanRequest(buf, st.id, &r)
	}); err != nil {
		c.takeStream(st.id)
		c.fail(err)
		e.drop(c)
		return nil, err
	}
	return &ScanStream{e: e, c: c, st: st, ctx: ctx}, nil
}

// Next advances to the next record, blocking for the next chunk (and
// granting a credit back per finished chunk). False means the stream
// is done: Err distinguishes a clean end from a failure.
func (s *ScanStream) Next() bool {
	if s.done {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.fail(err, false)
		return false
	}
	s.idx++
	if s.idx < len(s.chunk) {
		return true
	}
	if s.chunk != nil {
		// Finished a chunk: grant the server one more — unless its
		// stream-end has already arrived, when the credit would buy
		// nothing and cost a frame each way.
		s.chunk = nil
		if !s.ended() {
			if err := s.c.writeStreamFrame(func(buf []byte) []byte {
				return AppendCredit(buf, s.st.id, 1)
			}); err != nil {
				s.fail(err, true)
				return false
			}
		}
	}
	e, err := s.recv()
	switch {
	case err != nil:
		s.fail(err, false)
		return false
	case e.err != nil:
		s.fail(e.err, true)
		return false
	case e.end:
		s.done = true
		if e.mapVer != 0 {
			s.mapVer = e.mapVer
		}
		switch {
		case e.status != http.StatusOK:
			s.err = &RequestError{Status: e.status, Msg: e.msg}
		case e.count != s.delivered:
			s.err = &StreamCountError{Delivered: s.delivered, Declared: e.count}
		}
		return false
	}
	s.chunk, s.idx, s.mapVer = e.recs, 0, e.mapVer
	s.delivered += uint64(len(e.recs))
	return true
}

// ended reports whether the stream's terminal event has arrived,
// taking it off the mailbox if so (recv still delivers the chunks
// sent before it first).
func (s *ScanStream) ended() bool {
	if s.term == nil {
		select {
		case e := <-s.st.term:
			s.term = &e
		default:
		}
	}
	return s.term != nil
}

// recv blocks for the stream's next event, chunks first. The read loop
// fills term only after every chunk sent before it is in ev, so once
// term is readable ev already holds all that is left — but a select
// with both ready picks either, so a terminal event is held back until
// ev has been emptied; honouring it at once would drop the stream's
// last chunks.
func (s *ScanStream) recv() (streamEvent, error) {
	for {
		select {
		case e := <-s.st.ev:
			return e, nil
		default:
		}
		if s.term != nil {
			return *s.term, nil
		}
		select {
		case e := <-s.st.ev:
			return e, nil
		case e := <-s.st.term:
			s.term = &e
		case <-s.ctx.Done():
			return streamEvent{}, s.ctx.Err()
		}
	}
}

// fail terminates the stream on a local error. connDead drops the
// pooled connection; otherwise (ctx cancel) Close tells the server to
// stop.
func (s *ScanStream) fail(err error, connDead bool) {
	s.done = true
	s.err = err
	if connDead {
		s.c.takeStream(s.st.id)
		s.st.cancelled.Store(true)
		s.e.drop(s.c)
	} else {
		s.Close()
	}
}

// Record returns the current record (valid after Next returned true,
// until the next Next call).
func (s *ScanStream) Record() *StreamRecord { return &s.chunk[s.idx] }

// MapVersion reports the shard-map version echoed on the last chunk
// (or the stream end), 0 for single-node servers.
func (s *ScanStream) MapVersion() int64 { return s.mapVer }

// Err reports how the stream ended: nil for a clean end, a
// *RequestError for a server-side abort (400/409/...), the ctx or
// connection error otherwise.
func (s *ScanStream) Err() error { return s.err }

// Close cancels the scan if it is still running. The server acks the
// cancel with a stream-end the read loop uses to retire the id; Close
// does not wait for it.
func (s *ScanStream) Close() error {
	if s.st.cancelled.Swap(true) {
		return nil
	}
	s.done = true
	// Only cancel a stream still registered (not yet terminated).
	s.c.mu.Lock()
	_, open := s.c.streams[s.st.id]
	s.c.mu.Unlock()
	if !open {
		return nil
	}
	if err := s.c.writeStreamFrame(func(buf []byte) []byte {
		return AppendStreamEnd(buf, s.st.id, 0, 0, 0, "")
	}); err != nil {
		s.c.takeStream(s.st.id)
		s.e.drop(s.c)
		return err
	}
	return nil
}
