package kvwire

import (
	"context"
	"errors"
	"net/http"
)

// ScanStream iterates a scan page by page:
//
//	s, err := ep.Scan(ctx, &kvwire.ScanRequest{Table: "t", Count: 1000})
//	defer s.Close()
//	for s.Next() {
//		rec := s.Record()
//	}
//	err = s.Err()
//
// Each page is one request through the endpoint's pending map, like an
// Exec: the stream holds at most one page, and asks for the next only
// once its caller has taken every record of this one and wants more.
// Next/Record/Err/Close must stay on one goroutine.
type ScanStream struct {
	e     *Endpoint
	ctx   context.Context
	req   ScanRequest // the next page's request
	reply chan wireReply

	c  *clientConn // the connection the page in flight rides, nil when none is
	id uint64      // its request id

	page   []StreamRecord
	idx    int
	mapVer int64
	more   bool // the server has pages past this one
	err    error

	// names is the name memo the stream's records decode with
	// (StreamRecord.FieldMap).
	names []string
}

// Scan starts one scan, sending the request for its first page. Errors
// from the send itself (dial, handshake) wrap ErrUnavailable like Exec;
// whatever the server answers surfaces from Next/Err.
func (e *Endpoint) Scan(ctx context.Context, req *ScanRequest) (*ScanStream, error) {
	s := &ScanStream{e: e, ctx: ctx, req: *req, reply: make(chan wireReply, 1), idx: -1}
	if err := s.request(); err != nil {
		return nil, err
	}
	return s, nil
}

// request sends the page request for s.req.
func (s *ScanStream) request() error {
	c, err := s.e.pick(s.ctx)
	if err != nil {
		return err
	}
	id := c.register(s.reply)
	if err := c.writeScanRequest(id, &s.req); err != nil {
		c.fail(err)
		s.e.drop(c)
		return err
	}
	s.c, s.id = c, id
	return nil
}

// Next advances to the next record, asking for the next page when this
// one is used up. False means the scan is done: Err distinguishes a
// clean end from a failure.
func (s *ScanStream) Next() bool {
	if s.err == nil {
		s.err = s.ctx.Err()
	}
	s.idx++
	for s.err == nil && s.idx >= len(s.page) {
		if s.c == nil {
			if !s.more {
				return false
			}
			if s.err = s.request(); s.err != nil {
				break
			}
		}
		s.err = s.await()
	}
	if s.err != nil {
		s.Close()
		return false
	}
	return true
}

// await takes the reply to the page in flight. Two pages answered under
// different shard map versions end the scan with 409: the filter
// changed between them, so records may be missing from the seam.
func (s *ScanStream) await() error {
	c := s.c
	var r wireReply
	select {
	case r = <-s.reply:
		s.c = nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
	switch {
	case r.err != nil:
		s.e.drop(c)
		return r.err
	case r.reqErr != nil:
		return r.reqErr
	case s.mapVer != 0 && r.page.mapVer != s.mapVer:
		return &RequestError{Status: http.StatusConflict, Msg: "shard map changed between scan pages"}
	}
	p := r.page
	s.page, s.idx, s.mapVer = p.recs, 0, p.mapVer
	if s.req.Count > 0 {
		s.req.Count = max(0, s.req.Count-len(p.recs))
	}
	if s.more = p.next != "" && s.req.Count != 0; !s.more {
		return nil
	}
	if p.next <= s.req.Start {
		return errors.New("kvwire: scan page does not move the scan forward")
	}
	s.req.Start = p.next
	return nil
}

// Record returns the current record (valid after Next returned true,
// until the next Next call). Its FieldMap decodes with the stream's
// name memo, so it too stays on the stream's goroutine.
func (s *ScanStream) Record() *StreamRecord {
	r := &s.page[s.idx]
	r.names = &s.names
	return r
}

// MapVersion reports the shard-map version the last page was filtered
// under, 0 for single-node servers.
func (s *ScanStream) MapVersion() int64 { return s.mapVer }

// Err reports how the scan ended: nil for a clean end, a *RequestError
// for a page the server refused (400/409/503/...) or a map change
// between pages (409), the ctx or connection error otherwise.
func (s *ScanStream) Err() error { return s.err }

// Close ends the scan: a page still in flight is forgotten, and its
// reply dropped when it arrives. The server holds nothing to release.
func (s *ScanStream) Close() error {
	if s.c != nil {
		s.c.unregister(s.id)
		s.c = nil
	}
	s.more = false
	s.page = s.page[:0]
	return nil
}
