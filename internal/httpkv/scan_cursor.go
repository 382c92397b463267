package httpkv

import (
	"context"
	"errors"
	"net/http"

	"ycsbt/internal/kvwire"
)

// errScanRescan marks a scan round the fleet invalidated mid-flight —
// a stream answered 409 (the shard map changed under it) or a wire
// connection died partway through a chunk sequence. Scans are
// idempotent, so the router's answer is always the same: refetch the
// map, back off, scan again.
var errScanRescan = errors.New("httpkv: scan raced a shard map change; rescan")

// scanCursor yields one node's sorted scan results for the router's
// k-way merge. Over a stream-capable wire endpoint it is lazy: records
// are pulled chunk by chunk as the merge consumes them, so a node
// whose keys mostly lose the merge race buffers at most a credit
// window of chunks instead of materializing the full count — and
// close() cancels the server's producer as soon as the merge has
// enough. The HTTP fallback keeps the old shape: one eager full page.
type scanCursor struct {
	ctx    context.Context
	stream *kvwire.ScanStream // nil on the HTTP path
	page   []wireRecord
	idx    int
	ver    int64 // shard map version the node scanned under
	cur    wireRecord
}

// openScanCursor opens one node's side of a fleet scan, streaming when
// the endpoint negotiated it and falling back to one eager HTTP page
// otherwise (same per-call fallback shape as scanStream).
func (c *Client) openScanCursor(ctx context.Context, table, start string, count int) (*scanCursor, error) {
	if ep, ok := c.wireStreamEndpoint(); ok {
		s, err := ep.Scan(ctx, &kvwire.ScanRequest{Table: table, Start: start, Count: count, Slot: -1})
		if err == nil {
			return &scanCursor{ctx: ctx, stream: s}, nil
		}
		if errors.Is(err, kvwire.ErrUnavailable) {
			c.caps.wireUnsupported.Store(true)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Transient open failure: HTTP for this call only.
	}
	page, ver, err := c.scanWireHTTP(ctx, table, start, count)
	if err != nil {
		return nil, err
	}
	return &scanCursor{ctx: ctx, page: page, ver: ver}, nil
}

// next returns the node's next record, or (nil, nil) when the cursor
// is exhausted. The returned pointer is valid until the next call.
func (sc *scanCursor) next() (*wireRecord, error) {
	if sc.stream == nil {
		if sc.idx >= len(sc.page) {
			return nil, nil
		}
		wr := &sc.page[sc.idx]
		sc.idx++
		return wr, nil
	}
	if sc.stream.Next() {
		rec := sc.stream.Record()
		sc.ver = sc.stream.MapVersion()
		sc.cur = wireRecord{
			Key:      rec.Key,
			Version:  rec.Version,
			CommitTS: rec.CommitTS,
			Deleted:  rec.Deleted,
			Fields:   rec.Fields,
		}
		return &sc.cur, nil
	}
	sc.ver = sc.stream.MapVersion()
	err := sc.stream.Err()
	if err == nil {
		return nil, nil
	}
	var re *kvwire.RequestError
	var ce *kvwire.StreamCountError
	switch {
	case errors.As(err, &ce):
		return nil, err // a protocol defect, not a dead connection: no quiet rescan
	case errors.As(err, &re) && re.Status == http.StatusConflict:
		// The shard map changed under the node's scan.
		return nil, errScanRescan
	case errors.As(err, &re):
		return nil, wireResultErr(kvwire.Result{Status: re.Status, Err: re.Msg})
	case sc.ctx.Err() != nil:
		return nil, sc.ctx.Err()
	default:
		// Connection died mid-stream: rescan (idempotent).
		return nil, errScanRescan
	}
}

// close cancels a still-running stream so the server stops producing;
// a no-op for exhausted streams and HTTP pages.
func (sc *scanCursor) close() {
	if sc.stream != nil {
		sc.stream.Close()
	}
}
