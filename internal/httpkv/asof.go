package httpkv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// Time travel. GET /v1/ts returns {"ts":n}, a snapshot timestamp from
// the engine's commit clock: every already-acknowledged write is ≤ n.
// Reading at a timestamp rides frames only — the as-of field of a get
// op or a scan request — so an HTTP endpoint refuses as-of reads with
// db.ErrNotSupported rather than serve head data. There is no remote
// pin: a default server keeps no overwritten version nobody pinned, so
// an unpinned as-of read whose version was overwritten since ts fails
// with kvstore.ErrBelowHorizon (kvwire.StatusBelowHorizon on the wire).
// Run the server with -retention (kvstore.retention_ms) to keep a
// window of history for such reads.

// errAsOfNeedsFrames refuses an as-of read on an HTTP endpoint.
var errAsOfNeedsFrames = fmt.Errorf("%w: as-of reads ride frames only and this endpoint is HTTP (rawhttp.wire)", db.ErrNotSupported)

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

// SnapshotTS fetches a snapshot timestamp from GET /v1/ts.
func (c *Client) SnapshotTS(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/ts", nil)
	if err != nil {
		return 0, fmt.Errorf("httpkv: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("httpkv: %w", err)
	}
	var ts wireTS
	if err := decodeBody(resp, &ts); err != nil || ts.TS <= 0 {
		return 0, fmt.Errorf("httpkv: node %s serves no snapshot clock", c.base)
	}
	return ts.TS, nil
}

// ---------------------------------------------------------------------
// RemoteStore: the txn.SnapshotStore capability over frames.

// Snapshot draws a snapshot timestamp from the server. There is no
// remote pin: the release is a no-op, and reads at the snapshot stay
// exact only inside the server's -retention window — a default server
// has none and answers kvstore.ErrBelowHorizon for any version
// overwritten since. Size the window to the longest read-only
// transaction.
func (r *RemoteStore) Snapshot(ctx context.Context) (int64, func(), error) {
	ts, err := r.c.SnapshotTS(ctx)
	if err != nil {
		return 0, nil, err
	}
	return ts, func() {}, nil
}

// GetAsOf implements the snapshot-store capability.
func (r *RemoteStore) GetAsOf(ctx context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	rec, err := r.c.get(ctx, table, key, ts)
	return rec, remoteTranslate(err)
}

// ScanAsOf implements the snapshot-store capability.
func (r *RemoteStore) ScanAsOf(ctx context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	kvs, err := scanInto(ctx, r.c, table, startKey, count, ts, versionedConv)
	return kvs, remoteTranslate(err)
}
