package httpkv

import (
	"context"
	"errors"
	"net/http"

	"ycsbt/internal/kvwire"
)

// errScanRescan marks a scan round the fleet invalidated mid-flight —
// a page answered 409 (the shard map changed under it, or between two
// of its pages), a wire connection died partway through a scan, or a
// node answered a top-up under a different map than its first fetch.
// Scans are idempotent, so the router's answer is always the same:
// refetch the map, back off, scan again.
var errScanRescan = errors.New("httpkv: scan raced a shard map change; rescan")

// scanCursor yields one node's sorted scan results for the router's
// k-way merge. The merge rarely needs more than its share of count
// from any one node, so a cursor asks its node for that share, not for
// count, and tops the node up — a further fetch from just past the
// last key it delivered — only when the merge has consumed everything
// it sent and still wants more. A fetch is one paged scan, consumed
// page by page, so even a large share buffers at most one page.
type scanCursor struct {
	c     *Client
	ctx   context.Context
	table string

	stream *kvwire.ScanStream // the current fetch

	asked int   // records the current fetch asked the node for; < 0 = all
	got   int   // records it has delivered
	ver   int64 // shard map version the node scanned under

	// head is the cursor's current record — the node's smallest key the
	// merge has not consumed — or nil once the node is exhausted. It
	// points into the fetch's current page and is valid until next.
	head *kvwire.StreamRecord
}

// openScanCursor starts one node's side of a fleet scan by asking it
// for its first n records from start. The caller primes the cursor
// with next.
func (c *Client) openScanCursor(ctx context.Context, table, start string, n int) (*scanCursor, error) {
	sc := &scanCursor{c: c, ctx: ctx, table: table}
	if err := sc.fetch(start, n); err != nil {
		return nil, err
	}
	return sc, nil
}

// fetch starts a scan for up to n records from start.
func (sc *scanCursor) fetch(start string, n int) error {
	sc.asked, sc.got = n, 0
	s, err := sc.c.wire.Scan(sc.ctx, &kvwire.ScanRequest{Table: sc.table, Start: start, Count: n, Slot: -1})
	if err != nil {
		if cerr := sc.ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	sc.stream = s
	return nil
}

// sawVersion records the map version a fetch reports. One cursor's
// fetches must all be filtered under the same map, or the slot filter
// changed between them and records may be missing from the seam.
func (sc *scanCursor) sawVersion(ver int64) error {
	if ver == 0 {
		return nil // nothing reported yet
	}
	if sc.ver != 0 && sc.ver != ver {
		return errScanRescan
	}
	sc.ver = ver
	return nil
}

// next advances head to the node's next record (nil when the node has
// no more). want is how many records the merge could still take from
// this node: if the current fetch delivered everything it was asked
// for, the node may hold more, and next tops it up with a fetch for
// want — which, being all the merge can still use, is this node's
// last.
func (sc *scanCursor) next(want int) error {
	for {
		rec, err := sc.advance()
		if err == nil && rec == nil && sc.asked >= 0 && sc.got >= sc.asked {
			// The fetch delivered all it was asked for: the node may hold more.
			if err = sc.fetch(sc.head.Key+"\x00", want); err == nil {
				continue
			}
		}
		if rec != nil {
			sc.got++
		}
		sc.head = rec // nil: the node ran out, or err
		return err
	}
}

// advance returns the current fetch's next record, or nil at its end.
func (sc *scanCursor) advance() (*kvwire.StreamRecord, error) {
	more := sc.stream.Next()
	if err := sc.sawVersion(sc.stream.MapVersion()); err != nil {
		return nil, err
	}
	if more {
		return sc.stream.Record(), nil
	}
	err := sc.stream.Err()
	if err == nil {
		return nil, nil
	}
	var re *kvwire.RequestError
	switch {
	case errors.As(err, &re) && re.Status == http.StatusConflict:
		// The shard map changed under the node's scan.
		return nil, errScanRescan
	case errors.As(err, &re) && re.Status == http.StatusNotFound:
		return nil, nil // the table has not reached this node: nothing to merge
	case errors.As(err, &re):
		return nil, wireResultErr(kvwire.Result{Status: re.Status, Err: re.Msg})
	case sc.ctx.Err() != nil:
		return nil, sc.ctx.Err()
	default:
		// Connection died mid-scan: rescan (idempotent).
		return nil, errScanRescan
	}
}

// close ends the current fetch; a page still in flight is forgotten.
func (sc *scanCursor) close() {
	sc.stream.Close()
}
