package kvwire

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"ycsbt/internal/kvstore"
)

// Server side of the streaming protocol (see stream.go for the frame
// layout). Scans run in a producer goroutine per stream that blocks on
// consumer credits, so server memory per scan is one chunk regardless
// of result size or consumer speed. The server only produces: from a
// client it takes scan requests, credits and cancels, nothing else.

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
	case frameStreamEnd:
		if _, _, _, _, err := DecodeStreamEnd(payload); err != nil {
			return false
		}
		// The consumer cancelling. An unknown id is tolerated: the cancel
		// can race the server's own end frame.
		c.smu.Lock()
		if sc := c.scans[id]; sc != nil {
			sc.cancel()
		}
		c.smu.Unlock()
		return true
	}
	return false
}

// startScan registers an outbound scan stream and spawns its producer.
func (s *Server) startScan(c *serverConn, id uint64, req *ScanRequest, window int) bool {
	ctx, cancel := context.WithCancel(c.ctx)
	sc := &serverScan{credits: uint64(window), avail: make(chan struct{}, 1), cancel: cancel}
	c.smu.Lock()
	if _, dup := c.scans[id]; dup {
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
