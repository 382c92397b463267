package httpkv

import (
	"context"
	"errors"

	"ycsbt/internal/kvwire"
)

// The streamed scan fast path: when the endpoint negotiated streaming
// frames (X-KV-Wire-Stream), scans ride the binary protocol as
// credit-gated chunk streams instead of HTTP/NDJSON pages. served =
// false sends the caller down the HTTP path — the same per-call
// fallback shape as wireExec, safe because scans are idempotent.
func (c *Client) scanStream(ctx context.Context, table, start string, count int, asOf int64, slot int, tombstones bool) (wrs []wireRecord, mapVer int64, served bool, err error) {
	ep, ok := c.wireStreamEndpoint()
	if !ok {
		return nil, 0, false, nil
	}
	s, err := ep.Scan(ctx, &kvwire.ScanRequest{
		Table:      table,
		Start:      start,
		Count:      count,
		AsOf:       asOf,
		Slot:       slot,
		Tombstones: tombstones,
	})
	if err != nil {
		if errors.Is(err, kvwire.ErrUnavailable) {
			c.caps.wireUnsupported.Store(true)
		}
		if ctx.Err() != nil {
			return nil, 0, true, ctx.Err()
		}
		return nil, 0, false, nil
	}
	defer s.Close()
	wrs = make([]wireRecord, 0, scanPrealloc(count))
	for s.Next() {
		rec := s.Record()
		wrs = append(wrs, wireRecord{
			Key:      rec.Key,
			Version:  rec.Version,
			CommitTS: rec.CommitTS,
			Deleted:  rec.Deleted,
			Fields:   rec.Fields,
		})
	}
	if err := s.Err(); err != nil {
		var re *kvwire.RequestError
		if errors.As(err, &re) {
			// A server-side abort (bad params, shard-map skew, shed) is
			// authoritative — HTTP would answer the same.
			return nil, 0, true, wireResultErr(kvwire.Result{Status: re.Status, Err: re.Msg})
		}
		var ce *kvwire.StreamCountError
		if errors.As(err, &ce) {
			return nil, 0, true, err // a protocol defect, not a dead connection: no quiet fallback
		}
		if ctx.Err() != nil {
			return nil, 0, true, ctx.Err()
		}
		// Connection died mid-stream: rescan over HTTP (idempotent).
		return nil, 0, false, nil
	}
	return wrs, s.MapVersion(), true, nil
}
