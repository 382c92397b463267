// Package httpkv exposes a kvstore.Store over HTTP and provides the
// matching client-side DB binding ("rawhttp").
//
// This is the reproduction's analog of the paper's Tier 6 testbed: "a
// WiredTiger key-value store augmented with an HTTP interface that we
// implemented using the Boost ASIO library", accessed through the
// RawHttpDB client class. The single-key interface is deliberately
// plain REST, so concurrent read-modify-write sequences race and the
// Closed Economy Workload's validation stage detects the resulting
// lost updates; /v1/batch moves many such operations per round trip
// without changing those semantics (per-item results, no atomicity
// across items).
//
// Protocol (JSON bodies, record values base64-encoded by
// encoding/json's []byte rules):
//
//	GET    /v1/{table}/{key}          → 200 {"version":n,"fields":{...}} | 404
//	PUT    /v1/{table}/{key}          → 200; If-Match: <ver> CAS, If-None-Match: * create-only; 412 on conflict
//	PATCH  /v1/{table}/{key}          → 200 merge-update | 404
//	DELETE /v1/{table}/{key}          → 204; If-Match honored; 404/412
//	GET    /v1/{table}?start=k&count=n → 200 [{"key":k,"version":v,"fields":{...}},...]
//	                                     (Accept: application/x-ndjson streams one record per line)
//	POST   /v1/batch                  → 200 NDJSON per-item results (see batch.go)
//	GET    /v1/ts                     → 200 {"ts":n} snapshot timestamp (see asof.go; reserves table name "ts")
//	GET    /healthz                   → 200 "ok"
//
// Every successful record response carries the version in the "ETag"
// header, the idiom the simulated cloud stores share.
//
// Time travel: an X-As-Of-Ts request header on GET/scan (and an
// "as_of" field on batch get lines) serves the read from the engine's
// version history as of that commit timestamp; the server echoes the
// served ts in X-As-Of-Served (or the result line's "as_of"), which is
// how clients detect servers that predate the header and refuse to
// silently read head data (see asof.go).
//
// Admission control (ServerOptions): request bodies are capped (413
// past the cap), an X-Deadline-Ms header bounds how long the server
// may sit on the request (504 once expired), and concurrent /v1/batch
// executions beyond MaxInflightBatches shed immediately with 429 +
// Retry-After.
package httpkv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/obs"
)

// wireRecord is the JSON shape of one record on the wire. CommitTS
// rides along (omitted when zero) so a migration copy can preserve
// as-of visibility on the destination node; Deleted marks a tombstone
// in a migration copy (tombstone scans + ingest), so deletes travel
// with the data. Old clients drop the unknown fields.
type wireRecord struct {
	Key      string            `json:"key,omitempty"`
	Version  uint64            `json:"version"`
	CommitTS int64             `json:"commit_ts,omitempty"`
	Deleted  bool              `json:"deleted,omitempty"`
	Fields   map[string][]byte `json:"fields"`
}

// ServerOptions tunes the server's admission control.
type ServerOptions struct {
	// MaxInflightBatches caps concurrently executing /v1/batch
	// requests; excess requests are rejected immediately with 429 +
	// Retry-After instead of queueing (load shedding, not buffering).
	// <= 0 means unlimited.
	MaxInflightBatches int
	// MaxBodyBytes caps any request body (default 1 MiB); larger
	// bodies fail with 413.
	MaxBodyBytes int64
	// RetryAfter is the backoff hint sent with 429 responses
	// (default 1s; rendered in whole seconds per RFC 9110).
	RetryAfter time.Duration
	// Metrics, when non-nil, receives the server's httpkv_* series
	// (inflight gauge, response-code counters, batch-size histogram).
	Metrics *obs.Registry
	// Cluster, when non-nil, puts the server in cluster mode: it
	// serves only the shard-map slots the node owns, answers the rest
	// with 410 + routing hints, and exposes the shard-map management
	// routes (see cluster.go).
	Cluster *cluster.State
	// Core, when non-nil, is the transport-neutral request core to
	// serve through — pass the same Core to the binary wire listener so
	// both transports share one admission limit and ownership gate.
	// When nil a private core is built from Cluster and
	// MaxInflightBatches.
	Core *kvwire.Core
	// WireAddr, when non-empty, is the address of this process's
	// binary wire listener; every HTTP response advertises it in the
	// X-KV-Wire header so clients can upgrade the hot path.
	WireAddr string
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Server is an http.Handler serving a kvstore.Engine — any engine
// implementation (the embedded partitioned store today, future
// engines tomorrow) gets the HTTP surface for free.
type Server struct {
	store   kvstore.Engine
	core    *kvwire.Core
	mux     *http.ServeMux
	opts    ServerOptions
	metrics *serverMetrics
}

// NewServer returns a handler serving store with default admission
// control.
func NewServer(store kvstore.Engine) *Server {
	return NewServerWithOptions(store, ServerOptions{})
}

// NewServerWithOptions returns a handler serving store with the given
// admission control.
func NewServerWithOptions(store kvstore.Engine, opts ServerOptions) *Server {
	s := &Server{store: store, mux: http.NewServeMux(), opts: opts.withDefaults()}
	s.metrics = newServerMetrics(opts.Metrics)
	s.core = s.opts.Core
	if s.core == nil {
		s.core = kvwire.NewCore(store, s.opts.Cluster, s.opts.MaxInflightBatches)
		s.core.Instrument(opts.Metrics)
	} else if s.opts.Cluster == nil {
		// A shared core carries the cluster gate; the HTTP management
		// routes need it too.
		s.opts.Cluster = s.core.Cluster()
	}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/ts", s.handleSnapshotTS)
	s.mux.HandleFunc("/v1/shardmap", s.handleShardMap)
	s.mux.HandleFunc("/v1/shardmap/freeze", s.handleFreeze)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/tables", s.handleTables)
	s.mux.HandleFunc("/v1/", s.handleRecord)
	return s
}

// ServeHTTP implements http.Handler: body caps and the per-request
// deadline apply here, before any route runs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.opts.WireAddr != "" {
		w.Header().Set(WireAddrHeader, s.opts.WireAddr)
		// Same build serves both listeners, so advertising the wire
		// listener implies it speaks the streaming frames too; clients
		// sniff this before sending stream frames an older wire server
		// would treat as a protocol violation.
		w.Header().Set(WireStreamHeader, "1")
	}
	if s.metrics != nil {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sr := &statusRecorder{ResponseWriter: w}
		defer func() { s.metrics.countResponse(sr.code()) }()
		w = sr
	}
	if r.Body != nil && r.ContentLength != 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	}
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			http.Error(w, "bad "+DeadlineHeader, http.StatusBadRequest)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// splitPath parses /v1/{table}[/{key}] and reports whether a key part
// is present.
func splitPath(path string) (table, key string, hasKey bool, ok bool) {
	rest := strings.TrimPrefix(path, "/v1/")
	if rest == path || rest == "" {
		return "", "", false, false
	}
	parts := strings.SplitN(rest, "/", 2)
	table = parts[0]
	if table == "" {
		return "", "", false, false
	}
	if len(parts) == 1 || parts[1] == "" {
		return table, "", false, true
	}
	return table, parts[1], true, true
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	table, key, hasKey, ok := splitPath(r.URL.Path)
	if !ok {
		http.Error(w, "bad path", http.StatusBadRequest)
		return
	}
	if r.Context().Err() != nil {
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	if !hasKey {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleScan(w, r, table)
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.handleGet(w, r, table, key)
	case http.MethodPut:
		s.handlePut(w, r, table, key)
	case http.MethodPatch:
		s.handlePatch(w, r, table, key)
	case http.MethodDelete:
		s.handleDelete(w, r, table, key)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, table, key string) {
	if s.checkRead(w, key) {
		return
	}
	ts, err := asOfRequested(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if ts != 0 {
		// Echo the served ts on every as-of response (including
		// errors): the echo is how clients distinguish a server that
		// honored the snapshot from an old one that ignored the header.
		w.Header().Set(AsOfServedHeader, strconv.FormatInt(ts, 10))
	}
	rec, err := s.core.Get(table, key, ts)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	writeRecord(w, "", rec)
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request, table string) {
	q := r.URL.Query()
	start := q.Get("start")
	count := 100
	if c := q.Get("count"); c != "" {
		n, err := strconv.Atoi(c)
		// count=-1 (unlimited) is reserved for cluster-internal scans:
		// the migration copy must drain a whole slot in one pass.
		if err != nil || n < -1 || (n == -1 && s.opts.Cluster == nil) {
			http.Error(w, "bad count", http.StatusBadRequest)
			return
		}
		count = n
	}
	slot := -1
	if sl := q.Get("slot"); sl != "" {
		if s.opts.Cluster == nil {
			http.Error(w, "not a cluster node", http.StatusBadRequest)
			return
		}
		n, err := strconv.Atoi(sl)
		if err != nil || n < 0 || n >= s.opts.Cluster.Map().Slots {
			http.Error(w, "bad slot", http.StatusBadRequest)
			return
		}
		slot = n
	}
	ts, err := asOfRequested(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if ts != 0 {
		w.Header().Set(AsOfServedHeader, strconv.FormatInt(ts, 10))
	}
	// tombstones=1 (cluster-internal, as-of only) includes delete
	// versions in the result, marked wireRecord.Deleted — the migration
	// copy needs them so a deleted key cannot resurrect when a slot
	// returns to a former owner. The echo header is how the migrator
	// detects a pre-tombstone server that silently ignored the param.
	tombstones := q.Get("tombstones") != ""
	if tombstones {
		if s.opts.Cluster == nil || ts == 0 {
			http.Error(w, "tombstones requires cluster mode and an as-of ts", http.StatusBadRequest)
			return
		}
		w.Header().Set(ScanTombstonesHeader, "1")
	}
	if s.opts.Cluster != nil {
		// Cluster mode always filters (the core pages until count
		// owned records are found). Scan responses echo the node's map
		// version so routers can detect a mid-cutover fleet whose
		// nodes filter by different maps.
		w.Header().Set(cluster.HeaderMapVersion, strconv.FormatInt(s.opts.Cluster.Map().Version, 10))
	}
	// r.Context() dies when the client disconnects: the core checks it
	// between engine pages, so an abandoned scan stops paging instead
	// of draining the table for nobody.
	kvs, err := s.core.Scan(r.Context(), table, start, count, ts, slot, tombstones)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	toWire := func(kv kvstore.VersionedKV) wireRecord {
		return wireRecord{
			Key:      kv.Key,
			Version:  kv.Record.Version,
			CommitTS: kv.Record.CommitTS,
			Deleted:  kv.Record.Tombstone(),
			Fields:   kv.Record.Fields,
		}
	}
	// NDJSON-aware clients get one record per line (written as
	// produced, no array buffering); everyone else keeps the original
	// JSON array.
	if strings.Contains(r.Header.Get("Accept"), NDJSONContentType) {
		w.Header().Set("Content-Type", NDJSONContentType)
		be := getEncoder(w)
		for _, kv := range kvs {
			be.enc.Encode(toWire(kv))
		}
		be.flushAndPut()
		return
	}
	out := make([]wireRecord, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, toWire(kv))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// condition extracts the conditional-write expectation from If-Match /
// If-None-Match headers; default is unconditional.
func condition(r *http.Request) (uint64, error) {
	if r.Header.Get("If-None-Match") == "*" {
		return kvstore.MustNotExist, nil
	}
	im := r.Header.Get("If-Match")
	if im == "" {
		return kvstore.AnyVersion, nil
	}
	v, err := strconv.ParseUint(strings.Trim(im, `"`), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad If-Match %q", im)
	}
	return v, nil
}

func decodeFields(r *http.Request) (map[string][]byte, error) {
	var body wireRecord
	if err := unmarshalFrom(r.Body, &body); err != nil {
		return nil, err
	}
	if body.Fields == nil {
		return nil, errors.New("missing fields")
	}
	return body.Fields, nil
}

// writeDecodeError answers a request-body failure: bodies over the
// admission cap are 413, everything else (malformed JSON, missing
// fields) is 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, table, key string) {
	expect, err := condition(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fields, err := decodeFields(r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	ver, err := s.core.Put(table, key, fields, expect)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	w.Header().Set("ETag", strconv.FormatUint(ver, 10))
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request, table, key string) {
	fields, err := decodeFields(r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	ver, err := s.core.Update(table, key, fields)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	w.Header().Set("ETag", strconv.FormatUint(ver, 10))
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, table, key string) {
	expect, err := condition(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.core.Delete(table, key, expect); err != nil {
		writeStoreError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeRecord(w http.ResponseWriter, key string, rec *kvstore.VersionedRecord) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", strconv.FormatUint(rec.Version, 10))
	be := getEncoder(w)
	be.enc.Encode(wireRecord{Key: key, Version: rec.Version, CommitTS: rec.CommitTS, Fields: rec.Fields})
	be.flushAndPut()
}

func writeStoreError(w http.ResponseWriter, err error) {
	var me *cluster.MovedError
	if errors.As(err, &me) {
		writeMoved(w, me)
		return
	}
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, kvstore.ErrVersionMismatch), errors.Is(err, kvstore.ErrExists):
		http.Error(w, err.Error(), http.StatusPreconditionFailed)
	case errors.Is(err, kvstore.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
