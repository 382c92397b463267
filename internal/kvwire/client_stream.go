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
// window it asked for; an IngestStream produces chunk frames against
// the server's granted credits, blocking when the server falls behind.
// Both multiplex onto the same pooled connections as Exec — chunks
// interleave with pipelined responses.

// clientStream is one stream's read-loop mailbox. Scan chunks ride ev
// (capacity = window, so a server exceeding its credits hits a full
// channel and the connection is failed as a protocol violator);
// terminal events — the peer's stream-end or a connection failure —
// ride term, capacity 1, which the read loop fills after everything
// sent before it is already in ev.
type clientStream struct {
	id     uint64
	ingest bool

	ev   chan streamEvent
	term chan streamEvent

	// cancelled marks a scan the consumer abandoned: the read loop
	// discards its remaining chunks and retires the id on the ack.
	cancelled atomic.Bool

	// Ingest producer state: credits granted by the server, avail
	// pulsed on every grant and on terminal events.
	credits atomic.Int64
	avail   chan struct{}
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

func (st *clientStream) pulse() {
	select {
	case st.avail <- struct{}{}:
	default:
	}
}

// deliverTerm hands the stream its terminal event. Capacity 1 and
// single-delivery discipline (the read loop unregisters the stream
// first) mean this never blocks.
func (st *clientStream) deliverTerm(e streamEvent) {
	select {
	case st.term <- e:
	default:
	}
	st.pulse()
}

// openStream registers a new stream on the conn, sharing the request
// id space (and the inflight count load-balanced by pick).
func (c *clientConn) openStream(ingest bool, window int) *clientStream {
	st := &clientStream{
		ingest: ingest,
		ev:     make(chan streamEvent, window),
		term:   make(chan streamEvent, 1),
		avail:  make(chan struct{}, 1),
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
	if st == nil || st.ingest {
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

// handleStreamFrame routes one credit or stream-end frame from the read
// loop. Returning an error fails the connection.
func (c *clientConn) handleStreamFrame(typ byte, id uint64, payload []byte) error {
	c.mu.Lock()
	st := c.streams[id]
	c.mu.Unlock()
	switch typ {
	case frameCredit:
		if st == nil || !st.ingest {
			return fmt.Errorf("kvwire: credit frame for unknown stream %d", id)
		}
		n, err := DecodeCredit(payload)
		if err != nil {
			return err
		}
		st.credits.Add(int64(n))
		st.pulse()
		return nil
	case frameStreamEnd:
		status, mapVer, count, msg, err := DecodeStreamEnd(payload)
		if err != nil {
			return err
		}
		st = c.takeStream(id)
		if st == nil {
			return fmt.Errorf("kvwire: stream-end for unknown stream %d", id)
		}
		st.deliverTerm(streamEvent{end: true, status: status, mapVer: mapVer, count: count, msg: msg})
		return nil
	}
	return fmt.Errorf("kvwire: unexpected frame type %d", typ)
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
	st := c.openStream(false, window)
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

// IngestStream streams record chunks into one table:
//
//	in, err := ep.Ingest(ctx, "t")
//	err = in.Send(recs)          // repeatedly; blocks on server credits
//	n, err := in.Close()         // finishes and returns the server's count
//
// Send/Close/Abort must stay on one goroutine. On error, call Abort.
type IngestStream struct {
	e   *Endpoint
	c   *clientConn
	st  *clientStream
	ctx context.Context

	done bool
	term *streamEvent
}

// Ingest opens one streamed ingest. The server answers with its credit
// window (or an admission-shed stream-end, surfaced by the first Send
// or Close as a 429 RequestError).
func (e *Endpoint) Ingest(ctx context.Context, table string) (*IngestStream, error) {
	c, err := e.pick(ctx)
	if err != nil {
		return nil, err
	}
	st := c.openStream(true, 1)
	if err := c.writeStreamFrame(func(buf []byte) []byte {
		return AppendIngestRequest(buf, st.id, table)
	}); err != nil {
		c.takeStream(st.id)
		c.fail(err)
		e.drop(c)
		return nil, err
	}
	return &IngestStream{e: e, c: c, st: st, ctx: ctx}, nil
}

// take blocks until the server has granted a chunk credit; a terminal
// event instead is returned as the stream's outcome error.
func (in *IngestStream) take() error {
	for {
		select {
		case e := <-in.st.term:
			in.term = &e
			return in.termErr()
		default:
		}
		if in.st.credits.Add(-1) >= 0 {
			return nil
		}
		in.st.credits.Add(1)
		select {
		case <-in.ctx.Done():
			return in.ctx.Err()
		case <-in.st.avail:
		}
	}
}

func (in *IngestStream) termErr() error {
	e := in.term
	if e.err != nil {
		return e.err
	}
	if e.status != http.StatusOK {
		return &RequestError{Status: e.status, Msg: e.msg}
	}
	return nil
}

// Send ships recs as one or more chunk frames, blocking whenever the
// server's credits are exhausted — the flow control that keeps server
// memory bounded however large the ingest is.
func (in *IngestStream) Send(recs []StreamRecord) error {
	if in.done {
		return errors.New("kvwire: ingest stream closed")
	}
	for len(recs) > 0 {
		n := len(recs)
		if n > streamChunkRecords {
			n = streamChunkRecords
		}
		if err := in.take(); err != nil {
			in.finish(err)
			return err
		}
		if err := in.c.writeStreamFrame(func(buf []byte) []byte {
			return AppendChunk(buf, in.st.id, 0, recs[:n])
		}); err != nil {
			in.failConn(err)
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// Close ends the stream cleanly and waits for the server's ack,
// returning the number of records it ingested.
func (in *IngestStream) Close() (uint64, error) {
	if in.done {
		return 0, errors.New("kvwire: ingest stream closed")
	}
	if in.term == nil {
		if err := in.c.writeStreamFrame(func(buf []byte) []byte {
			return AppendStreamEnd(buf, in.st.id, http.StatusOK, 0, 0, "")
		}); err != nil {
			in.failConn(err)
			return 0, err
		}
		select {
		case e := <-in.st.term:
			in.term = &e
		case <-in.ctx.Done():
			in.failConn(in.ctx.Err())
			return 0, in.ctx.Err()
		}
	}
	in.done = true
	if err := in.termErr(); err != nil {
		if in.term.err != nil {
			in.e.drop(in.c)
		}
		return in.term.count, err
	}
	return in.term.count, nil
}

// Abort tells the server to discard the stream (its ingest handler
// stops at the next chunk boundary; records already ingested stay —
// the engine ingest is idempotent, callers retry the whole copy).
func (in *IngestStream) Abort() {
	if in.done {
		return
	}
	if in.term == nil {
		if err := in.c.writeStreamFrame(func(buf []byte) []byte {
			return AppendStreamEnd(buf, in.st.id, 0, 0, 0, "abort")
		}); err != nil {
			in.failConn(err)
			return
		}
		// The server does not ack an abort; retire the id locally.
		in.c.takeStream(in.st.id)
	}
	in.done = true
}

// finish retires the stream after a terminal error that leaves the
// connection healthy (ctx cancel, admission shed, server-side store
// error). The end frame is sent even when the server aborted first —
// its handler drains the stream until the client's end arrives — and
// is harmless if the server already forgot the id.
func (in *IngestStream) finish(err error) {
	in.done = true
	if in.term != nil && in.term.err != nil {
		in.failConn(in.term.err)
		return
	}
	in.c.writeStreamFrame(func(buf []byte) []byte {
		return AppendStreamEnd(buf, in.st.id, 0, 0, 0, "abort")
	})
	in.c.takeStream(in.st.id)
}

// failConn retires the stream after a connection-level failure.
func (in *IngestStream) failConn(err error) {
	in.done = true
	in.c.takeStream(in.st.id)
	in.c.fail(err)
	in.e.drop(in.c)
}
