package httpkv

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// The /v1/batch protocol: the request body is NDJSON, one operation
// per line, answered positionally with NDJSON result lines carrying a
// per-item HTTP status and ETag. One POST moves a whole multi-key
// batch, so the per-request costs the single-op protocol pays N times
// — connection scheduling, header parsing, handler dispatch, response
// flush — are paid once:
//
//	POST /v1/batch                   Content-Type: application/x-ndjson
//	{"op":"get","table":"t","key":"a"}
//	{"op":"put","table":"t","key":"b","fields":{...},"if_none_match":"*"}
//	{"op":"patch","table":"t","key":"c","fields":{...}}
//	{"op":"delete","table":"t","key":"d","if_match":"7"}
//	→ 200                            Content-Type: application/x-ndjson
//	{"status":200,"etag":"3","fields":{...}}
//	{"status":412,"error":"..."}
//	...
//
// Per-item failures never fail the POST; whole-request failures are
// 400 (malformed NDJSON), 413 (body over the server's cap), 429 +
// Retry-After (admission control) and 504 (X-Deadline-Ms expired
// before any work ran). The table name "batch" is reserved by this
// route.

// NDJSONContentType is the MIME type of batch bodies and streamed
// scans.
const NDJSONContentType = "application/x-ndjson"

// DeadlineHeader carries the client's remaining per-request budget in
// milliseconds; the server abandons work it cannot start in time.
const DeadlineHeader = "X-Deadline-Ms"

// maxBatchItems bounds one batch request independently of body bytes.
const maxBatchItems = 4096

// Pooled per-request machinery: a bufio.Writer + json.Encoder per
// response and a fresh op slice per /v1/batch request would dominate
// the handlers' steady-state garbage, so both recycle through
// sync.Pools (the encoder keeps its writer for life; Reset retargets
// it per request).
type respEncoder struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

var respEncPool = sync.Pool{New: func() any {
	bw := bufio.NewWriterSize(nil, 4096)
	return &respEncoder{bw: bw, enc: json.NewEncoder(bw)}
}}

// getEncoder borrows a pooled encoder writing to w; the hot response
// bodies (batch results, single records, NDJSON scan pages) all go
// through one.
func getEncoder(w io.Writer) *respEncoder {
	be := respEncPool.Get().(*respEncoder)
	be.bw.Reset(w)
	return be
}

// flushAndPut sends what is buffered and returns the encoder to the
// pool, dropping the ResponseWriter first.
func (be *respEncoder) flushAndPut() {
	be.bw.Flush()
	be.bw.Reset(nil)
	respEncPool.Put(be)
}

var batchOpsPool = sync.Pool{New: func() any {
	ops := make([]wireBatchOp, 0, 64)
	return &ops
}}

// putBatchOps clears decoded field maps (so the pool does not pin
// request payloads) and returns the slice to the pool.
func putBatchOps(ops *[]wireBatchOp) {
	clear(*ops)
	*ops = (*ops)[:0]
	batchOpsPool.Put(ops)
}

// coreBatchPool recycles the kvwire op/result slices the handler
// builds per request, so the core extraction does not add steady-state
// garbage to the NDJSON hot path.
type coreBatch struct {
	ops []kvwire.Op
	res []kvwire.Result
}

var coreBatchPool = sync.Pool{New: func() any {
	return &coreBatch{ops: make([]kvwire.Op, 0, 64), res: make([]kvwire.Result, 0, 64)}
}}

func putCoreBatch(cb *coreBatch) {
	clear(cb.ops)
	clear(cb.res)
	cb.ops = cb.ops[:0]
	cb.res = cb.res[:0]
	coreBatchPool.Put(cb)
}

// wireBatchOp is one NDJSON request line.
type wireBatchOp struct {
	Op          string            `json:"op"`
	Table       string            `json:"table"`
	Key         string            `json:"key"`
	Fields      map[string][]byte `json:"fields,omitempty"`
	IfMatch     string            `json:"if_match,omitempty"`
	IfNoneMatch string            `json:"if_none_match,omitempty"`
	// AsOf, on a get, asks for the newest version with commit ts ≤
	// AsOf instead of the head. Old servers drop the unknown field and
	// serve head data; the result-line echo is how clients tell.
	AsOf int64 `json:"as_of,omitempty"`
}

// wireBatchResult is one NDJSON response line.
type wireBatchResult struct {
	Status int               `json:"status"`
	ETag   string            `json:"etag,omitempty"`
	Fields map[string][]byte `json:"fields,omitempty"`
	Error  string            `json:"error,omitempty"`
	// AsOf echoes the request line's as_of when the server honored it;
	// its absence on an as-of get means an old server served head data
	// (the batch analogue of the missing AsOfServedHeader).
	AsOf int64 `json:"as_of,omitempty"`
	// Owner and MapVersion carry the routing hints of a per-item 410
	// in cluster mode — the batch analogue of the X-Shard-Owner and
	// X-Shard-Map-Version headers. Owner is empty while the key's slot
	// drains for migration (back off, don't redirect).
	Owner      string `json:"owner,omitempty"`
	MapVersion int64  `json:"map_version,omitempty"`
}

// expect resolves the line's conditional-write headers (same defaults
// as the single-op protocol).
func (op wireBatchOp) expect() (uint64, error) {
	if op.IfNoneMatch == "*" {
		return kvstore.MustNotExist, nil
	}
	if op.IfMatch == "" {
		return kvstore.AnyVersion, nil
	}
	v, err := strconv.ParseUint(op.IfMatch, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad if_match %q", op.IfMatch)
	}
	return v, nil
}

// toOp parses one NDJSON line into the transport-neutral op model.
// Parse failures (bad conditional, unknown op name) become KindInvalid
// with Reason set, preserving the protocol's error precedence: a bad
// if_match 400s before an unknown op name, which 400s before missing
// fields (the core's check).
func (op wireBatchOp) toOp() kvwire.Op {
	if op.Op == "get" {
		return kvwire.Op{Kind: kvwire.KindGet, Table: op.Table, Key: op.Key, AsOf: op.AsOf}
	}
	expect, err := op.expect()
	if err != nil {
		return kvwire.Op{Reason: err.Error()}
	}
	var kind kvwire.Kind
	switch op.Op {
	case "put":
		kind = kvwire.KindPut
	case "patch":
		kind = kvwire.KindPatch
	case "delete":
		kind = kvwire.KindDelete
	default:
		return kvwire.Op{Reason: fmt.Sprintf("unknown op %q", op.Op)}
	}
	return kvwire.Op{Kind: kind, Table: op.Table, Key: op.Key, Fields: op.Fields, Expect: expect}
}

// fromResult renders one core result as an NDJSON response line.
func fromResult(res kvwire.Result) wireBatchResult {
	out := wireBatchResult{
		Status:     res.Status,
		Fields:     res.Fields,
		Error:      res.Err,
		AsOf:       res.AsOf,
		Owner:      res.Owner,
		MapVersion: res.MapVersion,
	}
	if res.HasVersion {
		out.ETag = strconv.FormatUint(res.Version, 10)
	}
	return out
}

// handleBatch serves POST /v1/batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	release, ok := s.core.AcquireBatch()
	if !ok {
		w.Header().Set("Retry-After", retryAfterSeconds(s.opts.RetryAfter))
		http.Error(w, "too many in-flight batches", http.StatusTooManyRequests)
		return
	}
	defer release()
	opsp, err := decodeBatchOps(r)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	defer putBatchOps(opsp)
	ops := *opsp
	s.metrics.observeBatchSize(len(ops))
	if err := r.Context().Err(); err != nil {
		http.Error(w, "deadline exceeded", http.StatusGatewayTimeout)
		return
	}
	cb := coreBatchPool.Get().(*coreBatch)
	defer putCoreBatch(cb)
	for _, op := range ops {
		cb.ops = append(cb.ops, op.toOp())
	}
	if cap(cb.res) < len(cb.ops) {
		cb.res = make([]kvwire.Result, len(cb.ops))
	} else {
		cb.res = cb.res[:len(cb.ops)]
	}
	s.core.ExecBatchInto(r.Context(), cb.ops, cb.res)
	w.Header().Set("Content-Type", NDJSONContentType)
	be := getEncoder(w)
	for _, res := range cb.res {
		be.enc.Encode(fromResult(res))
	}
	be.flushAndPut()
}

// decodeBatchOps reads the NDJSON request lines into a pooled slice;
// the caller returns it with putBatchOps once the response is written.
func decodeBatchOps(r *http.Request) (*[]wireBatchOp, error) {
	opsp := batchOpsPool.Get().(*[]wireBatchOp)
	ops := (*opsp)[:0]
	fail := func(err error) (*[]wireBatchOp, error) {
		*opsp = ops
		putBatchOps(opsp)
		return nil, err
	}
	dec := json.NewDecoder(r.Body)
	for dec.More() {
		if len(ops) >= maxBatchItems {
			return fail(fmt.Errorf("batch exceeds %d items", maxBatchItems))
		}
		var op wireBatchOp
		if err := dec.Decode(&op); err != nil {
			return fail(fmt.Errorf("line %d: %w", len(ops)+1, err))
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return fail(errors.New("empty batch"))
	}
	*opsp = ops
	return opsp, nil
}

// retryAfterSeconds renders a Retry-After header value (whole
// seconds, minimum 1, per RFC 9110).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// ---------------------------------------------------------------------
// Client side.

// ExecBatch implements db.BatchDB over one POST /v1/batch round trip.
// Against a server that predates the batch route (404/405 on the
// first attempt) it falls back — permanently, per client — to
// sequential single operations, keeping old-server interop.
func (c *Client) ExecBatch(ctx context.Context, ops []db.BatchOp) []db.BatchResult {
	out := make([]db.BatchResult, len(ops))
	wire := make([]wireBatchOp, 0, len(ops))
	idx := make([]int, 0, len(ops))
	for i, op := range ops {
		var w wireBatchOp
		switch op.Op {
		case db.OpRead:
			w = wireBatchOp{Op: "get", Table: op.Table, Key: op.Key}
			if c.asOf != 0 {
				if c.caps.asOfUnsupported.Load() {
					out[i] = db.BatchResult{Err: errAsOfUnsupported}
					continue
				}
				w.AsOf = c.asOf
			}
		case db.OpInsert:
			w = wireBatchOp{Op: "put", Table: op.Table, Key: op.Key, Fields: op.Values}
		case db.OpUpdate:
			w = wireBatchOp{Op: "patch", Table: op.Table, Key: op.Key, Fields: op.Values}
		case db.OpDelete:
			w = wireBatchOp{Op: "delete", Table: op.Table, Key: op.Key}
		default:
			out[i] = db.BatchResult{Err: fmt.Errorf("%w: cannot batch %v", db.ErrNotSupported, op.Op)}
			continue
		}
		wire = append(wire, w)
		idx = append(idx, i)
	}
	if len(wire) == 0 {
		return out
	}
	// The binary fast path: when the endpoint has negotiated the wire
	// protocol, the whole batch rides one request frame. served=false
	// (transient conn failure, or a definitive one that just latched)
	// falls through to the HTTP path below.
	if ep, ok := c.wireEndpoint(); ok {
		wops := make([]kvwire.Op, len(wire))
		for j := range wire {
			wops[j] = wire[j].toOp()
		}
		res, err, served := c.wireExec(ctx, ep, wops)
		if served {
			if err != nil {
				for _, i := range idx {
					out[i] = db.BatchResult{Err: err}
				}
				return out
			}
			for j, i := range idx {
				out[i] = fromResult(res[j]).toBatchResult(ops[i].Fields)
			}
			return out
		}
	}
	if c.caps.batchUnsupported.Load() {
		c.execBatchFallback(ctx, ops, idx, out)
		return out
	}
	results, err := c.postBatch(ctx, wire)
	if err != nil {
		if errors.Is(err, errNoBatchRoute) {
			c.caps.batchUnsupported.Store(true)
			c.execBatchFallback(ctx, ops, idx, out)
			return out
		}
		for _, i := range idx {
			out[i] = db.BatchResult{Err: err}
		}
		return out
	}
	for j, i := range idx {
		if wire[j].AsOf != 0 && results[j].AsOf == 0 {
			// An old server dropped the unknown as_of field and served
			// head data; refuse it and latch, like the header echo path.
			c.caps.asOfUnsupported.Store(true)
			out[i] = db.BatchResult{Err: errAsOfUnsupported}
			continue
		}
		out[i] = results[j].toBatchResult(ops[i].Fields)
	}
	return out
}

// errNoBatchRoute marks a server without the /v1/batch route.
var errNoBatchRoute = errors.New("httpkv: server has no batch route")

// postBatch ships the wire ops and parses the positional NDJSON
// response.
func (c *Client) postBatch(ctx context.Context, wire []wireBatchOp) ([]wireBatchResult, error) {
	body := getBodyBuf()
	defer putBodyBuf(body) // after sendRetry: a 429 retry replays the buffer
	enc := json.NewEncoder(body)
	for _, op := range wire {
		if err := enc.Encode(op); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", NDJSONContentType)
	req.Header.Set("Accept", NDJSONContentType)
	resp, err := c.sendRetry(req)
	if err != nil {
		return nil, fmt.Errorf("httpkv: %w", err)
	}
	switch {
	case resp.StatusCode == http.StatusNotFound, resp.StatusCode == http.StatusMethodNotAllowed:
		// An old server answers the unknown route from its generic
		// handlers; fall back to the single-op protocol.
		drainClose(resp)
		return nil, errNoBatchRoute
	case resp.StatusCode >= 400:
		return nil, statusError(resp)
	}
	defer drainClose(resp)
	results := make([]wireBatchResult, 0, len(wire))
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var r wireBatchResult
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("httpkv: decoding batch response: %w", err)
		}
		results = append(results, r)
	}
	if len(results) != len(wire) {
		return nil, fmt.Errorf("httpkv: batch answered %d of %d items", len(results), len(wire))
	}
	return results, nil
}

// execBatchFallback answers the batchable items with sequential
// single operations (old-server interop path).
func (c *Client) execBatchFallback(ctx context.Context, ops []db.BatchOp, idx []int, out []db.BatchResult) {
	for _, i := range idx {
		op := ops[i]
		switch op.Op {
		case db.OpRead:
			rec, err := c.Read(ctx, op.Table, op.Key, op.Fields)
			out[i] = db.BatchResult{Record: rec, Err: err}
		case db.OpInsert:
			out[i] = db.BatchResult{Err: c.Insert(ctx, op.Table, op.Key, op.Values)}
		case db.OpUpdate:
			out[i] = db.BatchResult{Err: c.Update(ctx, op.Table, op.Key, op.Values)}
		case db.OpDelete:
			out[i] = db.BatchResult{Err: c.Delete(ctx, op.Table, op.Key)}
		}
	}
}

// toBatchResult maps one wire result to the db layer, projecting read
// fields like the single-op client does.
func (r wireBatchResult) toBatchResult(fields []string) db.BatchResult {
	switch r.Status {
	case http.StatusOK, http.StatusNoContent:
		if r.Fields != nil {
			return db.BatchResult{Record: db.ProjectFields(r.Fields, fields)}
		}
		return db.BatchResult{}
	case http.StatusNotFound:
		return db.BatchResult{Err: fmt.Errorf("%w: %s", db.ErrNotFound, r.Error)}
	case http.StatusPreconditionFailed:
		return db.BatchResult{Err: fmt.Errorf("%w: %s", db.ErrConflict, r.Error)}
	case http.StatusTooManyRequests:
		return db.BatchResult{Err: fmt.Errorf("%w: %s", db.ErrThrottled, r.Error)}
	case http.StatusGone:
		return db.BatchResult{Err: &cluster.MovedError{Owner: r.Owner, MapVersion: r.MapVersion}}
	case http.StatusGatewayTimeout:
		return db.BatchResult{Err: fmt.Errorf("%w: %s", context.DeadlineExceeded, r.Error)}
	default:
		return db.BatchResult{Err: fmt.Errorf("httpkv: batch item status %d: %s", r.Status, r.Error)}
	}
}

var _ db.BatchDB = (*Client)(nil)
