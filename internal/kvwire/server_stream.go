package kvwire

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"ycsbt/internal/kvstore"
)

// Server side of the streaming protocol (see stream.go for the frame
// layout). Scans run in a producer goroutine per stream that blocks on
// consumer credits, so server memory per scan is one chunk regardless
// of result size or consumer speed; ingests run in a handler goroutine
// fed by a bounded channel whose capacity is exactly the credit window
// the server granted, so a client that sends past its credits hits a
// full channel and is disconnected as a protocol violator.

// serverScan is one outbound scan stream: the producer takes one
// credit per chunk frame and parks when the consumer has granted none.
type serverScan struct {
	mu      sync.Mutex
	credits uint64
	avail   chan struct{} // buffered(1), pulsed on every grant
	cancel  context.CancelFunc
}

// grant adds n credits and wakes a parked producer.
func (sc *serverScan) grant(n uint64) {
	sc.mu.Lock()
	sc.credits += n
	sc.mu.Unlock()
	select {
	case sc.avail <- struct{}{}:
	default:
	}
}

// take consumes one credit, blocking until the consumer grants more,
// the stream is cancelled, or the connection dies. onStall fires once
// when the producer has to park.
func (sc *serverScan) take(ctx context.Context, onStall func()) error {
	stalled := false
	for {
		sc.mu.Lock()
		if sc.credits > 0 {
			sc.credits--
			sc.mu.Unlock()
			return nil
		}
		sc.mu.Unlock()
		if !stalled {
			stalled = true
			onStall()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-sc.avail:
		}
	}
}

// serverIngest is one inbound ingest stream: the read loop decodes
// chunk frames into the channel, the handler goroutine feeds them to
// Core.StreamIngest and grants one credit back per chunk it takes.
type serverIngest struct {
	chunks chan []kvstore.BulkKV
	cancel context.CancelFunc
	ended  bool // client sent its stream-end; channel closed or stream aborted
}

// handleStreamFrame routes one stream frame read off the connection.
// false means protocol violation (the read loop closes the conn).
func (s *Server) handleStreamFrame(c *serverConn, typ byte, id uint64, payload []byte) bool {
	switch typ {
	case frameScanReq:
		req, window, err := DecodeScanRequest(payload)
		if err != nil {
			return false
		}
		return s.startScan(c, id, &req, window)
	case frameIngestReq:
		table, err := DecodeIngestRequest(payload)
		if err != nil {
			return false
		}
		return s.startIngest(c, id, table)
	case frameCredit:
		n, err := DecodeCredit(payload)
		if err != nil {
			return false
		}
		c.smu.Lock()
		sc := c.scans[id]
		c.smu.Unlock()
		// A credit for a stream that just ended races the end frame —
		// tolerated, not a violation.
		if sc != nil {
			sc.grant(n)
		}
		return true
	case frameChunk:
		return s.routeIngestChunk(c, id, payload)
	case frameStreamEnd:
		status, _, _, _, err := DecodeStreamEnd(payload)
		if err != nil {
			return false
		}
		c.endStream(id, status)
		return true
	}
	return false
}

// endStream applies a consumer/producer stream-end from the peer: a
// scan's consumer cancelling, or an ingest's producer finishing
// (status 200) or aborting. Unknown ids are tolerated — the peer's end
// can race the server's own end frame.
func (c *serverConn) endStream(id uint64, status int) {
	c.smu.Lock()
	defer c.smu.Unlock()
	if sc := c.scans[id]; sc != nil {
		sc.cancel()
		return
	}
	if ing := c.ingests[id]; ing != nil && !ing.ended {
		ing.ended = true
		if status == http.StatusOK {
			close(ing.chunks)
		} else {
			ing.cancel()
		}
	}
}

// startScan registers an outbound scan stream and spawns its producer.
func (s *Server) startScan(c *serverConn, id uint64, req *ScanRequest, window int) bool {
	ctx, cancel := context.WithCancel(c.ctx)
	sc := &serverScan{credits: uint64(window), avail: make(chan struct{}, 1), cancel: cancel}
	c.smu.Lock()
	if _, dup := c.scans[id]; dup || c.ingests[id] != nil {
		c.smu.Unlock()
		cancel()
		return false
	}
	c.scans[id] = sc
	c.smu.Unlock()
	s.handlers.Add(1)
	c.handlers.Add(1)
	go func() {
		defer s.handlers.Done()
		defer c.handlers.Done()
		defer cancel()
		s.runScan(ctx, c, id, sc, req)
		c.smu.Lock()
		delete(c.scans, id)
		c.smu.Unlock()
	}()
	return true
}

// runScan drives Core.StreamScan, taking one credit before each chunk
// is produced — the engine is read only for a chunk the consumer has
// already asked for — then writing the chunk frame, and finally a
// terminal stream-end frame. The end of a scan that finishes cleanly
// rides in the same write as its last chunk: the common scan is one
// chunk, and a second write is a second syscall on each side.
func (s *Server) runScan(ctx context.Context, c *serverConn, id uint64, sc *serverScan, req *ScanRequest) {
	var total uint64
	ended := false
	mapVer, err := s.core.StreamScan(ctx, req, func() error {
		return sc.take(ctx, s.metrics.creditsStalled.Inc)
	}, func(recs []kvstore.VersionedKV, mapVersion int64, last bool) (int, error) {
		// Counted before the write, so a consumer that has seen the chunk
		// never reads a counter that has not.
		s.metrics.scanChunks.Inc()
		var n int
		err := s.writeFrame(c, func(buf []byte) []byte {
			buf, n = appendScanChunk(buf, id, mapVersion, recs)
			total += uint64(n)
			if last && n == len(recs) {
				ended = true
				buf = AppendStreamEnd(buf, id, http.StatusOK, mapVersion, total, "")
			}
			return buf
		})
		if err == nil && ended {
			s.metrics.framesOut.Inc() // writeFrame counted the chunk
		}
		var tally encodeTally
		for _, kv := range recs[:n] {
			tally.add(kv.Record.Fields, kv.Record.Image())
		}
		s.metrics.encoded(tally)
		return n, err
	})
	if ended {
		return
	}
	status, msg := http.StatusOK, ""
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// Consumer cancel (or conn death, where the write below fails
		// harmlessly): status 0 acks the cancel so the client can
		// retire the stream id.
		status = 0
	default:
		status, msg = http.StatusInternalServerError, err.Error()
		var serr *StreamError
		if errors.As(err, &serr) {
			status, msg = serr.Status, serr.Msg
		} else if errors.Is(err, kvstore.ErrBelowHorizon) {
			status = StatusBelowHorizon
		}
	}
	s.writeFrame(c, func(buf []byte) []byte {
		return AppendStreamEnd(buf, id, status, mapVer, total, msg)
	})
}

// startIngest admits and registers an inbound ingest stream, answering
// with the server's credit window, and spawns its handler.
func (s *Server) startIngest(c *serverConn, id uint64, table string) bool {
	release, ok := s.core.AcquireBatch()
	if !ok {
		secs := uint64((s.opts.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		s.writeFrame(c, func(buf []byte) []byte {
			return AppendStreamEnd(buf, id, http.StatusTooManyRequests, 0, secs, "too many in-flight batches")
		})
		return true
	}
	ctx, cancel := context.WithCancel(c.ctx)
	ing := &serverIngest{chunks: make(chan []kvstore.BulkKV, DefaultStreamWindow), cancel: cancel}
	c.smu.Lock()
	if _, dup := c.ingests[id]; dup || c.scans[id] != nil {
		c.smu.Unlock()
		cancel()
		release()
		return false
	}
	c.ingests[id] = ing
	c.smu.Unlock()
	if err := s.writeFrame(c, func(buf []byte) []byte {
		return AppendCredit(buf, id, DefaultStreamWindow)
	}); err != nil {
		c.smu.Lock()
		delete(c.ingests, id)
		c.smu.Unlock()
		cancel()
		release()
		return true
	}
	s.handlers.Add(1)
	c.handlers.Add(1)
	go func() {
		defer s.handlers.Done()
		defer c.handlers.Done()
		defer cancel()
		defer release()
		s.runIngest(ctx, c, id, ing, table)
		c.smu.Lock()
		delete(c.ingests, id)
		c.smu.Unlock()
	}()
	return true
}

// routeIngestChunk decodes one inbound chunk and hands it to the
// stream's handler. A chunk past the granted credits finds the channel
// full — protocol violation, conn closed — so server memory is bounded
// by window × chunk size no matter what the client does.
func (s *Server) routeIngestChunk(c *serverConn, id uint64, payload []byte) bool {
	c.smu.Lock()
	ing := c.ingests[id]
	ended := ing != nil && ing.ended
	c.smu.Unlock()
	if ing == nil || ended {
		return false
	}
	_, recs, err := DecodeChunk(payload, nil)
	if err != nil {
		return false
	}
	kvs := make([]kvstore.BulkKV, len(recs))
	for i := range recs {
		kvs[i] = kvstore.BulkKV{
			Key:      recs[i].Key,
			Fields:   recs[i].Fields,
			Version:  recs[i].Version,
			CommitTS: recs[i].CommitTS,
			Deleted:  recs[i].Deleted,
		}
	}
	select {
	case ing.chunks <- kvs:
		return true
	default:
		return false
	}
}

// runIngest feeds chunks to Core.StreamIngest, granting one credit
// back per chunk taken, and acks the stream with the ingested count.
func (s *Server) runIngest(ctx context.Context, c *serverConn, id uint64, ing *serverIngest, table string) {
	total, err := s.core.StreamIngest(ctx, table, func() ([]kvstore.BulkKV, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case kvs, ok := <-ing.chunks:
			if !ok {
				return nil, nil
			}
			// Grant-after-take: the channel capacity, not the client's
			// send rate, bounds buffered chunks.
			s.writeFrame(c, func(buf []byte) []byte {
				return AppendCredit(buf, id, 1)
			})
			return kvs, nil
		}
	})
	if err != nil {
		s.metrics.ingestRecords.Add(int64(total))
		if ctx.Err() != nil {
			return // client abort or conn death; nothing to ack
		}
		status, msg := http.StatusInternalServerError, err.Error()
		var serr *StreamError
		if errors.As(err, &serr) {
			status, msg = serr.Status, serr.Msg
		}
		s.writeFrame(c, func(buf []byte) []byte {
			return AppendStreamEnd(buf, id, status, 0, total, msg)
		})
		// The client may have window chunks in flight; drain them (no
		// further grants) until its stream-end closes the channel, so
		// the read loop doesn't mistake them for a credit overrun.
		for {
			select {
			case <-ctx.Done():
				return
			case _, ok := <-ing.chunks:
				if !ok {
					return
				}
			}
		}
	}
	s.metrics.ingestRecords.Add(int64(total))
	s.writeFrame(c, func(buf []byte) []byte {
		return AppendStreamEnd(buf, id, http.StatusOK, 0, total, "")
	})
}
