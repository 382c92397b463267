// Package httpkv exposes a kvstore.Store over HTTP and provides the
// matching client-side DB binding ("rawhttp").
//
// This is the reproduction's analog of the paper's Tier 6 testbed: "a
// WiredTiger key-value store augmented with an HTTP interface that we
// implemented using the Boost ASIO library", accessed through the
// RawHttpDB client class. The single-key interface is deliberately
// plain REST, so concurrent read-modify-write sequences race and the
// Closed Economy Workload's validation stage detects the resulting
// lost updates.
//
// HTTP carries what the paper measures plus the control plane, and
// nothing else (JSON bodies, record values base64-encoded by
// encoding/json's []byte rules; records are written and read by the
// record codec, codec.go):
//
//	GET    /v1/{table}/{key}          → 200 {"version":n,"fields":{...}} | 404
//	PUT    /v1/{table}/{key}          → 200; If-Match: <ver> CAS, If-None-Match: * create-only; 412 on conflict
//	PATCH  /v1/{table}/{key}          → 200 merge-update | 404
//	DELETE /v1/{table}/{key}          → 204; If-Match honored; 404/412
//	GET    /v1/{table}?start=k&count=n → 200 [{"key":k,"version":v,"fields":{...}},...]
//	                                     one page: count defaults to 100 and is clamped to kvwire.ScanPageCap
//	GET    /v1/ts                     → 200 {"ts":n} snapshot timestamp (see asof.go)
//	GET    /v1/tables                 → 200 {"tables":[...]}
//	GET/PUT /v1/shardmap, POST /v1/shardmap/{freeze,copy,drop}   cluster mode (see cluster.go)
//	GET    /healthz                   → 200 "ok"
//
// Every successful record response carries the version in the "ETag"
// header, the idiom the simulated cloud stores share. The table names
// "ts", "tables" and "shardmap" are reserved by those routes.
//
// Everything else — multi-key batches, as-of reads, multi-page and slot
// scans (the records of a migration copy) — exists on the
// framed binary protocol only (internal/kvwire), served from the same
// kvwire.Core by the listener ServerOptions.WireAddr advertises in the
// X-KV-Wire header of the /healthz response. A client picks one
// transport per endpoint, once (wire.go). ServeNode (node.go) wires a
// node: both listeners and the admin routes.
//
// Admission control: request bodies are capped at maxBodyBytes (413
// past the cap) and an X-Deadline-Ms header bounds how long the server
// may sit on the request (504 once expired).
package httpkv

import (
	"context"
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

// wireRecord is the JSON shape of one record: kvwire.StreamRecord's
// exported fields with JSON tags.
type wireRecord struct {
	Key      string            `json:"key,omitempty"`
	Version  uint64            `json:"version"`
	CommitTS int64             `json:"commit_ts,omitempty"`
	Fields   map[string][]byte `json:"fields"`
}

// DeadlineHeader carries the client's remaining per-request budget in
// milliseconds; the server abandons work it cannot start in time.
const DeadlineHeader = "X-Deadline-Ms"

// maxBodyBytes caps any request body; larger bodies fail with 413.
const maxBodyBytes = 1 << 20

// ServerOptions tunes the server.
type ServerOptions struct {
	// Metrics, when non-nil, receives the server's httpkv_* series
	// (inflight gauge, response-code counters).
	Metrics *obs.Registry
	// Cluster is ignored: the server takes Core's cluster state. It
	// goes once benchmark/stack.go stops setting it.
	Cluster *cluster.State
	// Core is the request core to serve through; it is required. A
	// non-nil Core.Cluster() puts the server in cluster mode (410 +
	// routing hints for slots it does not own, and the shard-map routes
	// of cluster.go). Pass the same Core to the frame listener so both
	// share one ownership gate (ServeNode does).
	Core *kvwire.Core
	// WireAddr, when non-empty, is the address of this process's frame
	// listener; the /healthz response advertises it in the X-KV-Wire
	// header, which is how clients, routers and migrations find it.
	WireAddr string
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

// NewServerWithOptions returns a handler serving store through
// opts.Core. A node is wired by ServeNode.
func NewServerWithOptions(store kvstore.Engine, opts ServerOptions) *Server {
	s := &Server{store: store, core: opts.Core, mux: http.NewServeMux(), opts: opts}
	s.metrics = newServerMetrics(opts.Metrics)
	s.opts.Cluster = s.core.Cluster()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/ts", s.handleSnapshotTS)
	s.mux.HandleFunc("/v1/shardmap", s.handleShardMap)
	s.mux.HandleFunc("/v1/shardmap/freeze", s.handleFreeze)
	s.mux.HandleFunc("/v1/shardmap/copy", s.handleCopy)
	s.mux.HandleFunc("/v1/shardmap/drop", s.handleDrop)
	s.mux.HandleFunc("/v1/tables", s.handleTables)
	s.mux.HandleFunc("/v1/", s.handleRecord)
	return s
}

// ServeHTTP implements http.Handler: body caps and the per-request
// deadline apply here, before any route runs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.metrics != nil {
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		sr := &statusRecorder{ResponseWriter: w}
		defer func() { s.metrics.countResponse(sr.code()) }()
		w = sr
	}
	if r.Body != nil && r.ContentLength != 0 {
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
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

// handleHealth answers the liveness check, which is also where a server
// with a frame listener advertises it (probeWire reads it here).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.opts.WireAddr != "" {
		w.Header().Set(WireAddrHeader, s.opts.WireAddr)
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// splitPath parses /v1/{table}[/{key}] and reports whether a key part
// is present.
func splitPath(path string) (table, key string, hasKey bool, ok bool) {
	rest := strings.TrimPrefix(path, "/v1/")
	if rest == path {
		return "", "", false, false
	}
	table, key, _ = strings.Cut(rest, "/")
	if table == "" {
		return "", "", false, false
	}
	return table, key, key != "", true
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
	if res, ok := s.exec(w, r, kvwire.Op{Kind: kvwire.KindGet, Table: table, Key: key}); ok {
		writeRecord(w, res.Record())
	}
}

// exec runs op through the request core as a one-op request, the way a
// request frame's ops run, and answers a result that is not a success
// itself: 410 with its routing hints, anything else with its status and
// message. ok reports a success, which the caller answers.
func (s *Server) exec(w http.ResponseWriter, r *http.Request, op kvwire.Op) (kvwire.Result, bool) {
	var out [1]kvwire.Result
	s.core.ExecBatchInto(r.Context(), []kvwire.Op{op}, out[:])
	switch res := &out[0]; {
	case res.Status == http.StatusGone:
		writeMoved(w, res)
	case res.Status >= 300:
		http.Error(w, res.Err, res.Status)
	default:
		return *res, true
	}
	return kvwire.Result{}, false
}

// handleScan serves one page of an ordered head scan as a JSON array.
// The page is buffered whole, so count is clamped to kvwire.ScanPageCap
// whatever the client asks for; a client wanting more pages on from
// just past the last key (Client.Scan does). In cluster mode the page
// holds only records this node owns.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request, table string) {
	q := r.URL.Query()
	count := 100
	if c := q.Get("count"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n < 0 {
			http.Error(w, "bad count", http.StatusBadRequest)
			return
		}
		count = min(n, kvwire.ScanPageCap)
	}
	// r.Context() dies when the client disconnects: the core checks it
	// between engine pages, so an abandoned scan stops paging.
	kvs, err := s.core.Scan(r.Context(), table, q.Get("start"), count)
	if err != nil {
		http.Error(w, err.Error(), kvwire.ErrResult(err).Status)
		return
	}
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	buf.Write(append(appendRecordPage(buf.AvailableBuffer(), kvs), '\n'))
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
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

// decodeFields reads a PUT or PATCH body's fields through the record
// codec (unmarshalFrom).
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
	if res, ok := s.exec(w, r, kvwire.Op{Kind: kvwire.KindPut, Table: table, Key: key, Fields: fields, Expect: expect}); ok {
		w.Header().Set("ETag", strconv.FormatUint(res.Version, 10))
		w.WriteHeader(http.StatusOK)
	}
}

func (s *Server) handlePatch(w http.ResponseWriter, r *http.Request, table, key string) {
	fields, err := decodeFields(r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if res, ok := s.exec(w, r, kvwire.Op{Kind: kvwire.KindPatch, Table: table, Key: key, Fields: fields}); ok {
		w.Header().Set("ETag", strconv.FormatUint(res.Version, 10))
		w.WriteHeader(http.StatusOK)
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, table, key string) {
	expect, err := condition(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, ok := s.exec(w, r, kvwire.Op{Kind: kvwire.KindDelete, Table: table, Key: key, Expect: expect}); ok {
		w.WriteHeader(http.StatusNoContent)
	}
}

// writeRecord answers a GET with the record and its version as ETag.
// The body, one JSON object and a newline, is built in a pooled buffer.
func writeRecord(w http.ResponseWriter, rec *kvstore.VersionedRecord) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", strconv.FormatUint(rec.Version, 10))
	buf := getBodyBuf()
	defer putBodyBuf(buf)
	buf.Write(append(appendStored(buf.AvailableBuffer(), "", rec), '\n'))
	w.Write(buf.Bytes())
}
