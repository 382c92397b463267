// Package kvwire is the request core of the key-value server and its
// framed binary protocol. The frame listener in this package decodes
// request frames into []Op, hands the slice to Core, and renders the
// positional []Result back out; the REST record routes in internal/httpkv
// hand the same Core a one-op slice. Dispatch, validation, run-splitting,
// cluster slot gating (MovedError), per-request deadlines and the batch
// admission limit all live here, once.
//
// Result statuses use the HTTP status space (200/204/400/404/410/412/
// 429/500/503/504), so the REST routes and the frames share one
// error-mapping table.
package kvwire

import (
	"context"
	"errors"
	"net/http"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// Kind identifies one operation. The zero value is KindInvalid: a
// front end that fails to parse an item (unknown op name, bad
// conditional) ships it through as KindInvalid with Reason set, so the
// item answers 400 positionally without disturbing the run-splitting
// around it.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindGet
	KindPut
	KindPatch
	KindDelete
	kindMax
)

// Op is one decoded operation, independent of the wire format that
// carried it.
//
// Expect uses the kvstore encoding (kvstore.AnyVersion for
// unconditional, kvstore.MustNotExist for create-only, else an exact
// version). Note the Go zero value is MustNotExist — front ends must
// set AnyVersion explicitly for unconditional writes.
type Op struct {
	Kind   Kind
	Table  string
	Key    string
	Fields map[string][]byte
	Expect uint64
	// Reason carries the 400 message of a KindInvalid op.
	Reason string
}

// Result is the positional outcome of one Op.
type Result struct {
	Status     int // HTTP status space
	Version    uint64
	HasVersion bool // distinguishes "version 0" from "no version"
	// Fields is a decoded result's record. A result the core builds
	// from a stored version leaves it nil and carries the version
	// instead (Record), whose image the response encoder copies as it
	// stands.
	Fields map[string][]byte
	rec    *kvstore.VersionedRecord
	Err    string
	// Owner and MapVersion carry a 410's routing hints in cluster
	// mode. Owner is empty while the key's slot drains for migration.
	Owner      string
	MapVersion int64
}

// Core executes decoded operations against the engine, applying the
// cluster ownership gate and the shared admission limits. One Core is
// shared by every transport of a server process, so the inflight batch
// cap bounds the process, not each listener separately.
type Core struct {
	store    kvstore.Engine
	cluster  *cluster.State
	inflight chan struct{} // batch admission semaphore (nil = unlimited)

	// Scan over-fetch, visible from a running node: records the engine
	// returned to scans against records scans handed to a front end.
	// Nil (no-op) unless Instrument was called.
	scanEngineRecords *obs.Counter
	scanRecords       *obs.Counter
	// batchItems is the size of every request frame the wire server
	// executes (Server.handleRequest); nil like the counters above.
	batchItems *obs.Histogram
	// ingestRecords counts what StreamIngest landed; nil like the rest.
	ingestRecords *obs.Counter
}

// NewCore builds a core over store. cs may be nil (single-node mode);
// maxInflightBatches <= 0 means unlimited.
func NewCore(store kvstore.Engine, cs *cluster.State, maxInflightBatches int) *Core {
	c := &Core{store: store, cluster: cs}
	if maxInflightBatches > 0 {
		c.inflight = make(chan struct{}, maxInflightBatches)
	}
	return c
}

// Instrument registers the core's scan and ingest counters and its
// batch-size histogram on reg, next to the wire server's
// kvwire_scan_chunks_total.
// They live on the core, not on a front end, because the paging loop is
// shared: a scan counts whether the wire or the HTTP server asked for
// it, and a node without a wire listener exports them too. Call it
// where the core is built, before any front end serves from it; a nil
// reg leaves them off.
func (c *Core) Instrument(reg *obs.Registry) {
	reg.Help("kvwire_scan_engine_records_total", "Records engine scan calls returned to serve scans (before the ownership filter and the count cut).")
	reg.Help("kvwire_scan_records_total", "Records scans handed to a front end (after the filter and the cut); engine records over these is the node's scan over-fetch.")
	c.scanEngineRecords = reg.Counter("kvwire_scan_engine_records_total")
	c.scanRecords = reg.Counter("kvwire_scan_records_total")
	reg.Help("httpkv_batch_items", "Operations per executed request frame; a REST op is not counted.")
	c.batchItems = reg.Histogram("httpkv_batch_items", obs.CountBuckets)
	reg.Help("kvwire_ingest_records_total", "Records a migration copy ingested (Core.StreamIngest).")
	c.ingestRecords = reg.Counter("kvwire_ingest_records_total")
}

// Cluster exposes the ownership gate; nil when not clustered.
func (c *Core) Cluster() *cluster.State { return c.cluster }

// AcquireBatch admits one batch execution under the shared inflight
// cap. ok=false means the caller must shed the request (429 +
// Retry-After); otherwise release must be called when the batch is
// done. Load shedding, not queueing: a full semaphore rejects
// immediately.
func (c *Core) AcquireBatch() (release func(), ok bool) {
	if c.inflight == nil {
		return func() {}, true
	}
	select {
	case c.inflight <- struct{}{}:
		return func() { <-c.inflight }, true
	default:
		return nil, false
	}
}

// ScanPageCap is the largest engine page a cluster-mode scan reads in
// one call, and therefore the ceiling a client-chosen count may size
// anything to before the first record exists: pages, page buffers and
// result preallocations all clamp to it, so count=1<<40 costs what
// count=1024 costs until the records actually arrive.
const ScanPageCap = 1024

// Scan serves one ordered head scan of at most count records, buffered
// whole — the REST route's page; callers bound count. In cluster mode
// the result is filtered to the slots this node owns and pages through
// the engine until count owned records are found, so a page is never
// silently short. ctx is checked between engine pages, so a scan whose
// client has gone away stops paging.
func (c *Core) Scan(ctx context.Context, table, start string, count int) ([]kvstore.VersionedKV, error) {
	var out []kvstore.VersionedKV
	_, _, err := c.scanPages(ctx, table, start, count, -1, -1, func(kv kvstore.VersionedKV) int {
		out = append(out, kv)
		return -1
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanPages is the paging loop under Scan and ScanPage: it pages
// through the engine, applies the cluster filter — owned slots by
// default, exactly slot when slot ≥ 0 (the migration copy) — and hands
// every kept record to emit until count records are emitted, emit
// leaves no room, the table is exhausted, or ctx is done. emit returns
// how many more records its consumer has room for (< 0: no bound but
// count), and room is that figure before the first record. It returns the
// shard map version the filter used (0 single-node) and the last key it
// looked at, "" once the engine ran out of table: a scan that goes on
// from just past that key skips nothing and re-reads nothing, not even
// the records the filter dropped.
//
// The request's count bounds what is read, not just what is returned:
// the first page asks the engine for count records (a node stores the
// keys it owns, so the filter normally passes all of them and one page
// is the whole scan), and a page that came back full without
// satisfying count sizes the next from what the scan has seen (see
// nextScanPage), never past ScanPageCap. Unlimited scans (count < 0)
// read at the cap from the start. A consumer with less room than count
// sizes the calls in its stead, so a page cut by its bytes reads about
// what it ships.
func (c *Core) scanPages(ctx context.Context, table, start string, count, slot, room int, emit func(kvstore.VersionedKV) int) (mapVer int64, last string, err error) {
	keep := func(string) bool { return true }
	if c.cluster != nil {
		m := c.cluster.Map()
		mapVer = m.Version
		keep = func(key string) bool {
			sl := m.SlotOf(key)
			if slot >= 0 {
				return sl == slot
			}
			return m.OwnerOfSlot(sl) == c.cluster.Self()
		}
	}
	if count == 0 {
		return mapVer, "", nil
	}
	emitted := 0
	defer func() { c.scanRecords.Add(int64(emitted)) }()
	pageSize := ScanPageCap
	if count > 0 && count < pageSize {
		pageSize = count
	}
	if room >= 0 {
		pageSize = min(pageSize, room)
	}
	scanned := 0
	for {
		if err := ctx.Err(); err != nil {
			return mapVer, "", err
		}
		page, err := c.store.Scan(table, start, pageSize)
		if err != nil {
			return mapVer, "", err
		}
		c.scanEngineRecords.Add(int64(len(page)))
		for _, kv := range page {
			if !keep(kv.Key) {
				continue
			}
			emitted++
			if room = emit(kv); room == 0 || emitted == count {
				return mapVer, kv.Key, nil
			}
		}
		if len(page) < pageSize {
			return mapVer, "", nil
		}
		start = page[len(page)-1].Key + "\x00"
		scanned += len(page)
		need := count - emitted
		if room >= 0 && (need < 0 || room < need) {
			need = room
		}
		pageSize = nextScanPage(pageSize, need, emitted, scanned)
	}
}

// nextScanPage sizes the engine page after one of size last that left
// a bounded scan need records short (need < 0: a drain). The filter
// has passed emitted of the scanned records so far, so the page most
// likely to finish the scan is need divided by that fraction, plus an
// eighth so an unlucky stretch does not cost one more engine call; a
// scan that has found nothing yet has no fraction to go by and
// doubles.
func nextScanPage(last, need, emitted, scanned int) int {
	switch {
	case need < 0 || need >= ScanPageCap:
		return ScanPageCap
	case emitted == 0:
		return min(2*last, ScanPageCap)
	}
	page := (need*scanned-1)/emitted + 1
	return min(page+page/8+1, ScanPageCap)
}

// validateScan applies the scan-request parameter rules.
func (c *Core) validateScan(req *ScanRequest) error {
	msg := ""
	switch {
	case req.Count < -1:
		msg = "bad count"
	case req.Slot >= 0 && c.cluster == nil:
		msg = "not a cluster node"
	case c.cluster != nil && req.Slot >= c.cluster.Map().Slots:
		msg = "bad slot"
	default:
		return nil
	}
	return &RequestError{Status: http.StatusBadRequest, Msg: msg}
}

// ScanPage serves one page of a framed scan: req's next records in key
// order — at most ScanPageCap of them and at most req.Count (< 0: no
// limit), filtered as scanPages filters — handed to emit until it has
// no room. emit returns how many more records the page has room for,
// judged from the encoded size of those it took; the engine calls are
// sized from that, so a page cut by its bytes does not read records the
// next page reads again. Before the first record what fits is unknown:
// a page the count bounds below ScanPageCap reads as the count says,
// any other reads one record first. It returns the shard map version
// the page was filtered under (0 single-node; reported for an empty
// page too, so an empty node still takes part in the router's skew
// check) and where the next page starts: just past the last key the
// page looked at, or "" once the scan is exhausted — its count reached
// or the table ended.
//
// A map installed while the page was being read may have moved a slot
// the filter kept, so such a page fails with 409 and the client rescans
// under the new map; between pages the client compares the versions.
func (c *Core) ScanPage(ctx context.Context, req *ScanRequest, emit func(kvstore.VersionedKV) int) (mapVer int64, next string, err error) {
	if err := c.validateScan(req); err != nil {
		return 0, "", err
	}
	limit := ScanPageCap
	if req.Count >= 0 {
		limit = min(limit, req.Count)
	}
	room := -1
	if limit == ScanPageCap {
		room = 1
	}
	emitted := 0
	mapVer, last, err := c.scanPages(ctx, req.Table, req.Start, limit, req.Slot, room, func(kv kvstore.VersionedKV) int {
		emitted++
		return emit(kv)
	})
	switch {
	case err != nil:
		return mapVer, "", err
	case c.cluster != nil && c.cluster.Map().Version != mapVer:
		return mapVer, "", &RequestError{Status: http.StatusConflict, Msg: "shard map changed mid-scan"}
	case last == "" || emitted == req.Count:
		return mapVer, "", nil
	}
	return mapVer, last + "\x00", nil
}

// StreamIngest merges batches of records into table, preserving
// versions and commit timestamps. next returns one batch at a time
// (nil, nil at the end) — the migration copy feeds it from a paged slot
// scan of the slot's source; the records land through Engine.Ingest
// batch by batch, so memory is bounded by a page regardless of how much
// one migration moves. Returns the total records ingested.
func (c *Core) StreamIngest(ctx context.Context, table string, next func() ([]kvstore.BulkKV, error)) (uint64, error) {
	var total uint64
	for {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		kvs, err := next()
		if err != nil {
			return total, err
		}
		if kvs == nil {
			return total, nil
		}
		for i := range kvs {
			if kvs[i].Key == "" {
				return total, &RequestError{Status: http.StatusBadRequest, Msg: "ingest record missing key"}
			}
		}
		if err := c.store.Ingest(table, kvs); err != nil {
			return total, err
		}
		total += uint64(len(kvs))
		c.ingestRecords.Add(int64(len(kvs)))
	}
}

// ExecBatch answers the decoded ops through the engine's multi-key
// path, splitting the batch into maximal runs of one kind — consecutive
// gets share one BatchGet, consecutive mutations one BatchApply — so
// order within the batch is preserved while each run pays one lock
// round per touched partition. If the
// request deadline expires between runs, the remaining items report 504
// instead of running. In cluster mode each item is ownership-gated (410
// + routing hints) and mutation runs hold the freeze barrier across
// check and apply.
func (c *Core) ExecBatch(ctx context.Context, ops []Op) []Result {
	out := make([]Result, len(ops))
	c.ExecBatchInto(ctx, ops, out)
	return out
}

// ExecBatchInto is ExecBatch writing into a caller-owned result slice
// (len(out) must equal len(ops)) so hot transports can pool it. It is
// the one way a data op reaches the engine: every request frame's ops
// and every REST record route's one op run through it.
func (c *Core) ExecBatchInto(ctx context.Context, ops []Op, out []Result) {
	for lo := 0; lo < len(ops); {
		get := ops[lo].Kind == KindGet
		hi := lo + 1
		for hi < len(ops) && (ops[hi].Kind == KindGet) == get {
			hi++
		}
		if ctx.Err() != nil {
			for i := lo; i < len(ops); i++ {
				out[i] = Result{Status: http.StatusGatewayTimeout, Err: "deadline exceeded"}
			}
			return
		}
		if get {
			c.execGetRun(ops[lo:hi], out[lo:hi])
		} else {
			c.execMutRun(ops[lo:hi], out[lo:hi])
		}
		lo = hi
	}
}

// execGetRun serves a run of head gets in one engine call. An item this
// node does not own answers 410 in place; the items the engine serves
// are the ones whose result is left at status 0.
func (c *Core) execGetRun(ops []Op, out []Result) {
	reqs := make([]kvstore.GetReq, 0, len(ops))
	for i, op := range ops {
		out[i] = Result{}
		if c.cluster != nil {
			if err := c.cluster.CheckRead(op.Key); err != nil {
				out[i] = MovedResult(err.(*cluster.MovedError))
				continue
			}
		}
		reqs = append(reqs, kvstore.GetReq{Table: op.Table, Key: op.Key})
	}
	if len(reqs) == 0 {
		return
	}
	results := c.store.BatchGet(reqs)
	j := 0
	for i := range out {
		if out[i].Status != 0 {
			continue
		}
		r := results[j]
		j++
		if r.Err != nil {
			out[i] = ErrResult(r.Err)
		} else {
			out[i] = Result{Status: http.StatusOK, Version: r.Record.Version, HasVersion: true, rec: r.Record}
		}
	}
}

// execMutRun applies a run of mutations in one BatchApply. In cluster
// mode it holds the freeze barrier across the ownership checks and the
// apply, so a migration snapshot drawn after Freeze returns covers every
// write admitted here. Items it refuses (410, 400) answer in place.
func (c *Core) execMutRun(ops []Op, out []Result) {
	if c.cluster != nil {
		defer c.cluster.Enter()()
	}
	muts := make([]kvstore.Mutation, 0, len(ops))
	for i, op := range ops {
		out[i] = Result{}
		if c.cluster != nil {
			if err := c.cluster.CheckWrite(op.Key); err != nil {
				out[i] = MovedResult(err.(*cluster.MovedError))
				continue
			}
		}
		var m kvstore.Mutation
		switch op.Kind {
		case KindPut:
			m = kvstore.Mutation{Op: kvstore.MutPut, Table: op.Table, Key: op.Key, Fields: op.Fields, Expect: op.Expect}
		case KindPatch:
			m = kvstore.Mutation{Op: kvstore.MutUpdate, Table: op.Table, Key: op.Key, Fields: op.Fields}
		case KindDelete:
			m = kvstore.Mutation{Op: kvstore.MutDelete, Table: op.Table, Key: op.Key, Expect: op.Expect}
		default:
			reason := op.Reason
			if reason == "" {
				reason = "invalid op"
			}
			out[i] = Result{Status: http.StatusBadRequest, Err: reason}
			continue
		}
		if (op.Kind == KindPut || op.Kind == KindPatch) && op.Fields == nil {
			out[i] = Result{Status: http.StatusBadRequest, Err: "missing fields"}
			continue
		}
		muts = append(muts, m)
	}
	if len(muts) == 0 {
		return
	}
	results := c.store.BatchApply(muts)
	j := 0
	for i := range out {
		if out[i].Status != 0 {
			continue
		}
		r := results[j]
		j++
		switch {
		case r.Err != nil:
			out[i] = ErrResult(r.Err)
		case ops[i].Kind == KindDelete:
			out[i] = Result{Status: http.StatusNoContent, Version: r.Version, HasVersion: true}
		default:
			out[i] = Result{Status: http.StatusOK, Version: r.Version, HasVersion: true}
		}
	}
}

// ErrResult maps an error to a result in the HTTP status space: the one
// table behind per-item results, scan error frames and the REST routes'
// statuses. A *RequestError keeps its own status.
func ErrResult(err error) Result {
	status := http.StatusInternalServerError
	var re *RequestError
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, kvstore.ErrVersionMismatch), errors.Is(err, kvstore.ErrExists):
		status = http.StatusPreconditionFailed
	case errors.Is(err, kvstore.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.As(err, &re):
		return Result{Status: re.Status, Err: re.Msg}
	}
	return Result{Status: status, Err: err.Error()}
}

// Record is the stored version a get the core served read; nil on a
// decoded result and on any result but a served get.
func (r *Result) Record() *kvstore.VersionedRecord { return r.rec }

// MovedResult renders a per-item 410 carrying the same routing hints
// as the single-op headers.
func MovedResult(me *cluster.MovedError) Result {
	return Result{
		Status:     http.StatusGone,
		Err:        me.Error(),
		Owner:      me.Owner,
		MapVersion: me.MapVersion,
	}
}
