package httpkv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// The as-of wire protocol: time-travel reads over HTTP.
//
// A client that wants a snapshot read sends the commit timestamp in
// the X-As-Of-Ts header (GET and scan) or the "as_of" field of a batch
// get line. A server that understands the protocol serves the read
// from the engine's version history and echoes the timestamp back
// (X-As-Of-Served header / "as_of" result field) on every response,
// errors included. The echo is the negotiation: an old server ignores
// the unknown header (or drops the unknown JSON field) and answers
// with head data and no echo, which the client treats as
// db.ErrNotSupported — a snapshot read must never silently degrade to
// a head read. Like the batch route's 405 latch, the first missing
// echo latches the client into fast-fail for later as-of reads.
//
// GET /v1/ts returns {"ts":n}, a snapshot timestamp from the engine's
// commit clock: every already-acknowledged write is ≤ n. Old servers
// answer that path as a scan of a table named "ts" — a JSON array —
// which the client detects as "no snapshot support". There is no
// remote pin: the server's retention window (kvstore.retention_ms)
// bounds how old a usable snapshot can be.

// AsOfHeader carries a snapshot (commit) timestamp on GET and scan
// requests; the server resolves each key's version chain to the newest
// version at or below it.
const AsOfHeader = "X-As-Of-Ts"

// AsOfServedHeader echoes the snapshot timestamp an as-of read was
// actually served at; its absence tells the client the server ignored
// AsOfHeader.
const AsOfServedHeader = "X-As-Of-Served"

// ScanTombstonesHeader echoes a scan's tombstones=1 request param; its
// absence tells the migration copy the server predates tombstone
// propagation and would silently drop deletes.
const ScanTombstonesHeader = "X-Scan-Tombstones"

// errAsOfUnsupported marks a server that ignores as-of requests.
var errAsOfUnsupported = fmt.Errorf("%w: server does not support as-of reads", db.ErrNotSupported)

// asOfRequested parses the as-of header: 0 when absent, an error when
// malformed (non-integer or non-positive).
func asOfRequested(r *http.Request) (int64, error) {
	h := r.Header.Get(AsOfHeader)
	if h == "" {
		return 0, nil
	}
	ts, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ts <= 0 {
		return 0, fmt.Errorf("bad %s %q", AsOfHeader, h)
	}
	return ts, nil
}

// wireTS is the /v1/ts response body.
type wireTS struct {
	TS int64 `json:"ts"`
}

// handleSnapshotTS serves GET /v1/ts from the engine's commit clock.
func (s *Server) handleSnapshotTS(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wireTS{TS: s.store.SnapshotTS()})
}

// ---------------------------------------------------------------------
// Client side.

// asOfEvidence reports whether a response status is conclusive about
// the server's as-of support: on these statuses a new server always
// has the echo header set, so its absence means an old server.
// Transport-level rejections (throttle, deadline, 5xx) say nothing.
func asOfEvidence(status int) bool {
	switch status {
	case http.StatusOK, http.StatusNoContent, http.StatusNotFound, http.StatusPreconditionFailed:
		return true
	}
	return false
}

// checkAsOfEcho latches the unsupported flag when a conclusive
// response lacks the served-ts echo.
func (c *Client) checkAsOfEcho(resp *http.Response) error {
	if resp.Header.Get(AsOfServedHeader) != "" {
		return nil
	}
	if !asOfEvidence(resp.StatusCode) {
		return nil // inconclusive; don't latch, let the status surface
	}
	c.caps.asOfUnsupported.Store(true)
	drainClose(resp)
	return errAsOfUnsupported
}

// readWireAsOf fetches one record as of ts, enforcing the echo.
func (c *Client) readWireAsOf(ctx context.Context, table, key string, ts int64) (*wireRecord, error) {
	if c.caps.asOfUnsupported.Load() {
		return nil, errAsOfUnsupported
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.recordURL(table, key), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(AsOfHeader, strconv.FormatInt(ts, 10))
	resp, err := c.sendRetry(req)
	if err != nil {
		return nil, fmt.Errorf("httpkv: %w", err)
	}
	if err := c.checkAsOfEcho(resp); err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, statusError(resp)
	}
	var wr wireRecord
	if err := decodeBody(resp, &wr); err != nil {
		return nil, fmt.Errorf("httpkv: decoding record: %w", err)
	}
	return &wr, nil
}

// scanWireAsOf fetches one scan page as of ts, enforcing the echo.
// Like scanWire it speaks NDJSON when the server does.
func (c *Client) scanWireAsOf(ctx context.Context, table, startKey string, count int, ts int64) ([]wireRecord, error) {
	if c.caps.asOfUnsupported.Load() {
		return nil, errAsOfUnsupported
	}
	// The streamed scan carries the as-of ts in the request frame and
	// the server's paging loop reads from the version history, so the
	// snapshot is honored by construction — no echo check needed.
	if wrs, _, served, err := c.scanStream(ctx, table, startKey, count, ts, -1, false); served {
		return wrs, err
	}
	u := c.base + "/v1/" + url.PathEscape(table) + "?start=" + url.QueryEscape(startKey) + "&count=" + strconv.Itoa(count)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", NDJSONContentType)
	req.Header.Set(AsOfHeader, strconv.FormatInt(ts, 10))
	resp, err := c.sendRetry(req)
	if err != nil {
		return nil, fmt.Errorf("httpkv: %w", err)
	}
	if err := c.checkAsOfEcho(resp); err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, statusError(resp)
	}
	return decodeScanBody(resp, count)
}

// SnapshotTS fetches a snapshot timestamp from GET /v1/ts. An old
// server answers the path as a table scan (a JSON array), which maps
// to db.ErrNotSupported and latches the as-of fast-fail.
func (c *Client) SnapshotTS(ctx context.Context) (int64, error) {
	if c.caps.asOfUnsupported.Load() {
		return 0, errAsOfUnsupported
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/ts", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.do(req)
	if err != nil {
		return 0, err
	}
	var ts wireTS
	if err := decodeBody(resp, &ts); err != nil || ts.TS <= 0 {
		c.caps.asOfUnsupported.Store(true)
		return 0, errAsOfUnsupported
	}
	return ts.TS, nil
}

// ---------------------------------------------------------------------
// RemoteStore: the txn.SnapshotStore capability over the wire.

// Snapshot draws a snapshot timestamp from the server. HTTP is
// stateless, so there is no remote pin: the release is a no-op and the
// snapshot stays readable for the server's retention window — size
// kvstore.retention_ms to cover the longest read-only transaction.
func (r *RemoteStore) Snapshot(ctx context.Context) (int64, func(), error) {
	ts, err := r.c.SnapshotTS(ctx)
	if err != nil {
		return 0, nil, remoteTranslate(err)
	}
	return ts, func() {}, nil
}

// GetAsOf implements the snapshot-store capability over AsOfHeader.
func (r *RemoteStore) GetAsOf(ctx context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	wr, err := r.c.readWireAsOf(ctx, table, key, ts)
	if err != nil {
		return nil, remoteTranslate(err)
	}
	return &kvstore.VersionedRecord{Version: wr.Version, Fields: wr.Fields}, nil
}

// ScanAsOf implements the snapshot-store capability over AsOfHeader.
func (r *RemoteStore) ScanAsOf(ctx context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	wrs, err := r.c.scanWireAsOf(ctx, table, startKey, count, ts)
	if err != nil {
		return nil, remoteTranslate(err)
	}
	out := make([]kvstore.VersionedKV, 0, len(wrs))
	for _, wr := range wrs {
		out = append(out, kvstore.VersionedKV{
			Key:    wr.Key,
			Record: &kvstore.VersionedRecord{Version: wr.Version, Fields: wr.Fields},
		})
	}
	return out, nil
}
