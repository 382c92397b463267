package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/txn"
)

// layer names one seam the harness wraps. Client-side layers nest
// strictly (tx ⊃ outer ⊃ inner ⊃ store) on the client thread's own
// goroutine; the two server-side layers run on server goroutines, see
// no context from the client, and are joined to it in aggregate only.
type layer uint8

const (
	layerTx      layer = iota // OpStart → end of OpCommit/OpAbort
	layerOuter                // db middleware, outermost
	layerInner                // db middleware, innermost: the binding call
	layerStore                // txn.Store handed to txn.NewManager
	layerHandler              // server http.Handler
	layerEngine               // kvstore.Engine under Core / LocalStore
	numLayers
)

var layerNames = [numLayers]string{"tx", "db.outer", "db.inner", "txn.store", "httpkv.handler", "kvstore.engine"}

// Span kinds are db.Op values: store, handler and engine calls map
// onto the closest data operation (get → OpRead, any conditional or
// plain write → OpUpdate, delete → OpDelete, scan → OpScan).
const numKinds = int(db.OpAbort) + 1

// span is one recorded interval. Parent indexes the same thread's
// span slice (-1 = root); Tx numbers the transaction within its
// thread (0 on server-side spans, which cannot know it).
type span struct {
	Start, End int64 // ns since the trial epoch
	Parent     int32
	Tx         uint32
	Layer      layer
	Kind       uint8
}

// Retained spans per client thread and per server-side seam. The
// buffers grow on demand up to these caps: a preallocated buffer is
// live heap, and tens of MiB of it would halve the collector's cycle
// rate on an allocation-heavy workload — tracing would then measure
// faster than not tracing.
const (
	threadSpanCap = 1 << 18
	serverSpanCap = 1 << 18
)

type traceKey struct{}

// intercept is the body of both db span middlewares.
func (tp *threadProbe) intercept(l layer, ctx context.Context, info db.OpInfo, call func(context.Context) error) error {
	var txIdx int32 = -1
	var txStart int64
	if l == layerOuter {
		if info.Op == db.OpStart {
			tp.tx++
			tp.keep = tp.tx%tp.p.keepEvery == 0
			tp.txStartNS = tp.p.now()
			tp.txSpan = tp.open(layerTx, 0, tp.txStartNS)
		}
		if ctx != tp.parentCtx {
			tp.parentCtx = ctx
			tp.derivedCtx = context.WithValue(ctx, traceKey{}, tp)
		}
		ctx = tp.derivedCtx
		txIdx, txStart = tp.txSpan, tp.txStartNS
	}
	kind := uint8(info.Op)
	start := tp.p.now()
	idx := tp.open(l, kind, start)
	err := call(ctx)
	end := tp.p.now()
	tp.close(idx, l, kind, start, end)
	if l == layerOuter && (info.Op == db.OpCommit || info.Op == db.OpAbort) {
		tp.close(txIdx, layerTx, 0, txStart, tp.p.now())
	}
	return err
}

// open starts a span; the returned index is -1 when the span is not
// retained (sampled out, or the buffer is full).
func (tp *threadProbe) open(l layer, kind uint8, start int64) int32 {
	if !tp.keep {
		return -1
	}
	if len(tp.spans) == threadSpanCap {
		tp.dropped++
		return -1
	}
	idx := int32(len(tp.spans))
	tp.spans = append(tp.spans, span{Start: start, Parent: tp.cur, Tx: tp.tx, Layer: l, Kind: kind})
	tp.cur = idx
	return idx
}

func (tp *threadProbe) close(idx int32, l layer, kind uint8, start, end int64) {
	tp.sum[l][kind] += end - start
	tp.cnt[l][kind]++
	if idx >= 0 {
		tp.spans[idx].End = end
		tp.cur = tp.spans[idx].Parent
	}
}

// storeSpan wraps the txn.Store handed to txn.NewManager. It forwards
// the optional vacuum-floor capability the manager type-asserts, so
// wrapping does not change which path the manager takes.
type storeSpan struct {
	txn.Store
}

// vacuumFloorer is the optional capability txn.Manager asserts on its
// stores and txn.LocalStore on its engine.
type vacuumFloorer interface{ SetVacuumFloor(int64) }

func (s storeSpan) SetVacuumFloor(ts int64) {
	if f, ok := s.Store.(vacuumFloorer); ok {
		f.SetVacuumFloor(ts)
	}
}

// snapshotStoreSpan is storeSpan over a store that can also serve
// snapshot reads (txn.SnapshotStore); those pass through unrecorded,
// none of the workloads here issues them.
type snapshotStoreSpan struct {
	storeSpan
	snap txn.SnapshotStore
}

func (s snapshotStoreSpan) Snapshot(ctx context.Context) (int64, func(), error) {
	return s.snap.Snapshot(ctx)
}

func (s snapshotStoreSpan) GetAsOf(ctx context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	return s.snap.GetAsOf(ctx, table, key, ts)
}

func (s snapshotStoreSpan) ScanAsOf(ctx context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	return s.snap.ScanAsOf(ctx, table, startKey, count, ts)
}

var (
	_ txn.Store         = storeSpan{}
	_ vacuumFloorer     = storeSpan{}
	_ txn.SnapshotStore = snapshotStoreSpan{}
	_ vacuumFloorer     = snapshotStoreSpan{}
	_ kvstore.Engine    = (*engineSpan)(nil)
	_ vacuumFloorer     = (*engineSpan)(nil)
)

// wrapStore returns s with spans, keeping its capability set.
func wrapStore(s txn.Store) txn.Store {
	if snap, ok := s.(txn.SnapshotStore); ok {
		return snapshotStoreSpan{storeSpan{s}, snap}
	}
	return storeSpan{s}
}

// storeCall records one store call on the calling client thread,
// found through the context the outer db span planted.
func storeCall(ctx context.Context, kind db.Op) func() {
	tp, _ := ctx.Value(traceKey{}).(*threadProbe)
	if tp == nil || !tp.p.on.Load() {
		return func() {}
	}
	start := tp.p.now()
	idx := tp.open(layerStore, uint8(kind), start)
	return func() { tp.close(idx, layerStore, uint8(kind), start, tp.p.now()) }
}

func (s storeSpan) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	defer storeCall(ctx, db.OpRead)()
	return s.Store.Get(ctx, table, key)
}

func (s storeSpan) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	defer storeCall(ctx, db.OpUpdate)()
	return s.Store.Put(ctx, table, key, fields, expect)
}

func (s storeSpan) Delete(ctx context.Context, table, key string, expect uint64) error {
	defer storeCall(ctx, db.OpDelete)()
	return s.Store.Delete(ctx, table, key, expect)
}

func (s storeSpan) Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	defer storeCall(ctx, db.OpScan)()
	return s.Store.Scan(ctx, table, startKey, count)
}

// serverTrace collects the spans of one server-side seam of one node.
// Calls arrive on many goroutines: sums are atomics, and the sampled
// spans that are retained go under a mutex (one call in keepEvery
// takes it).
type serverTrace struct {
	p     *probe
	node  int
	layer layer
	mu    sync.Mutex
	spans []span
	seq   atomic.Uint64
	sum   [numKinds]atomic.Int64
	cnt   [numKinds]atomic.Int64
	// records counts what engine scans returned (the over-fetch base).
	records atomic.Int64
}

func newServerTrace(p *probe, node int, l layer) *serverTrace {
	return &serverTrace{p: p, node: node, layer: l}
}

func (st *serverTrace) record(kind db.Op, start, end int64) {
	st.sum[kind].Add(end - start)
	st.cnt[kind].Add(1)
	if st.seq.Add(1)%uint64(st.p.keepEvery) != 0 {
		return
	}
	st.mu.Lock()
	if len(st.spans) < serverSpanCap {
		st.spans = append(st.spans, span{Start: start, End: end, Parent: -1, Layer: st.layer, Kind: uint8(kind)})
	}
	st.mu.Unlock()
}

// retained returns the spans kept; call it once the run phase is over.
func (st *serverTrace) retained() []span {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.spans
}

// engineSpan wraps the kvstore.Engine handed to kvwire.NewCore,
// httpkv.NewServerWithOptions or txn.NewLocalStore. The embedded
// interface forwards lifecycle, maintenance and pin calls untouched;
// every read, write and scan is recorded.
type engineSpan struct {
	kvstore.Engine
	st *serverTrace
}

// wrapEngine returns store itself on an untraced stack, and store
// behind node idx's engine span recorder on a traced one.
func (p *probe) wrapEngine(store *kvstore.Store, idx int) kvstore.Engine {
	if !p.traced {
		return store
	}
	st := newServerTrace(p, idx, layerEngine)
	p.engines = append(p.engines, st)
	return &engineSpan{Engine: store, st: st}
}

func (e *engineSpan) SetVacuumFloor(ts int64) {
	if f, ok := e.Engine.(vacuumFloorer); ok {
		f.SetVacuumFloor(ts)
	}
}

func (e *engineSpan) call(kind db.Op) func() {
	if !e.st.p.on.Load() {
		return func() {}
	}
	start := e.st.p.now()
	return func() { e.st.record(kind, start, e.st.p.now()) }
}

func (e *engineSpan) scanned(kvs []kvstore.VersionedKV) {
	if e.st.p.on.Load() {
		e.st.records.Add(int64(len(kvs)))
	}
}

func (e *engineSpan) Get(table, key string) (*kvstore.VersionedRecord, error) {
	defer e.call(db.OpRead)()
	return e.Engine.Get(table, key)
}

func (e *engineSpan) GetAsOf(table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	defer e.call(db.OpRead)()
	return e.Engine.GetAsOf(table, key, ts)
}

func (e *engineSpan) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	defer e.call(db.OpRead)()
	return e.Engine.BatchGet(reqs)
}

func (e *engineSpan) BatchGetAsOf(reqs []kvstore.GetReq, ts int64) []kvstore.GetResult {
	defer e.call(db.OpRead)()
	return e.Engine.BatchGetAsOf(reqs, ts)
}

func (e *engineSpan) Put(table, key string, fields map[string][]byte) (uint64, error) {
	defer e.call(db.OpUpdate)()
	return e.Engine.Put(table, key, fields)
}

func (e *engineSpan) Insert(table, key string, fields map[string][]byte) (uint64, error) {
	defer e.call(db.OpUpdate)()
	return e.Engine.Insert(table, key, fields)
}

func (e *engineSpan) PutIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	defer e.call(db.OpUpdate)()
	return e.Engine.PutIfVersion(table, key, fields, expect)
}

func (e *engineSpan) Update(table, key string, fields map[string][]byte) (uint64, error) {
	defer e.call(db.OpUpdate)()
	return e.Engine.Update(table, key, fields)
}

func (e *engineSpan) Delete(table, key string) error {
	defer e.call(db.OpDelete)()
	return e.Engine.Delete(table, key)
}

func (e *engineSpan) DeleteIfVersion(table, key string, expect uint64) error {
	defer e.call(db.OpDelete)()
	return e.Engine.DeleteIfVersion(table, key, expect)
}

func (e *engineSpan) BatchApply(muts []kvstore.Mutation) []kvstore.MutResult {
	defer e.call(db.OpUpdate)()
	return e.Engine.BatchApply(muts)
}

func (e *engineSpan) Scan(table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	defer e.call(db.OpScan)()
	kvs, err := e.Engine.Scan(table, startKey, count)
	e.scanned(kvs)
	return kvs, err
}

func (e *engineSpan) ScanAsOf(table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	defer e.call(db.OpScan)()
	kvs, err := e.Engine.ScanAsOf(table, startKey, count, ts)
	e.scanned(kvs)
	return kvs, err
}

func (e *engineSpan) ScanVersionsAsOf(table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	defer e.call(db.OpScan)()
	kvs, err := e.Engine.ScanVersionsAsOf(table, startKey, count, ts)
	e.scanned(kvs)
	return kvs, err
}

// handlerSpan wraps a server's http.Handler: one span per request.
func handlerSpan(h http.Handler, st *serverTrace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !st.p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := st.p.now()
		h.ServeHTTP(w, r)
		st.record(db.OpRead, start, st.p.now())
	})
}

// layerTotals is Σ span time and span count per layer over one trial.
type layerTotals struct {
	ns  [numLayers]int64
	n   [numLayers]int64
	kns [numLayers][numKinds]int64
	kn  [numLayers][numKinds]int64
}

func (p *probe) totals() layerTotals {
	var t layerTotals
	for _, tp := range p.order {
		for l := range tp.sum {
			for k := range tp.sum[l] {
				t.kns[l][k] += tp.sum[l][k]
				t.kn[l][k] += tp.cnt[l][k]
			}
		}
	}
	for _, sts := range [][]*serverTrace{p.engines, p.handlers} {
		for _, st := range sts {
			for k := range st.sum {
				t.kns[st.layer][k] += st.sum[k].Load()
				t.kn[st.layer][k] += st.cnt[k].Load()
			}
		}
	}
	for l := range t.kns {
		for k := range t.kns[l] {
			t.ns[l] += t.kns[l][k]
			t.n[l] += t.kn[l][k]
		}
	}
	return t
}

// durations returns the retained span lengths (ns) of one layer,
// optionally restricted to one kind (kind < 0 = all).
func (p *probe) durations(l layer, keep func(kind db.Op) bool) []int64 {
	var out []int64
	add := func(spans []span) {
		for i := range spans {
			s := &spans[i]
			if s.Layer == l && s.End > 0 && keep(db.Op(s.Kind)) {
				out = append(out, s.End-s.Start)
			}
		}
	}
	for _, tp := range p.order {
		add(tp.spans)
	}
	for _, sts := range [][]*serverTrace{p.engines, p.handlers} {
		for _, st := range sts {
			add(st.retained())
		}
	}
	return out
}

// writerCommits returns the retained Commit span lengths of
// transactions that wrote: the prepare / commit-point / roll-forward
// sequence, which a read-only transaction's trivial commit would bury.
func (p *probe) writerCommits() []int64 {
	var out []int64
	for _, tp := range p.order {
		wrote := map[uint32]bool{}
		for i := range tp.spans {
			s := &tp.spans[i]
			if s.Layer != layerInner {
				continue
			}
			switch db.Op(s.Kind) {
			case db.OpUpdate, db.OpInsert, db.OpDelete:
				wrote[s.Tx] = true
			case db.OpCommit:
				if wrote[s.Tx] && s.End > 0 {
					out = append(out, s.End-s.Start)
				}
			}
		}
	}
	return out
}

// writeSpans dumps every retained span as one NDJSON line. Client
// spans carry their thread, transaction and parent; server spans carry
// their node and no transaction — no context crosses the socket, so
// they join the client side in aggregate only.
func (p *probe) writeSpans(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := 0
	line := func(side string, owner int, id int, s *span) {
		if s.End == 0 {
			return // still open when the phase ended
		}
		op := db.Op(s.Kind).Series()
		if s.Layer == layerTx {
			op = "TX"
		}
		fmt.Fprintf(w, `{"side":%q,"owner":%d,"id":%d,"parent":%d,"tx":%d,"layer":%q,"op":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			side, owner, id, s.Parent, s.Tx, layerNames[s.Layer], op, s.Start, s.End)
		n++
	}
	for _, tp := range p.order {
		for i := range tp.spans {
			line("client-thread", tp.id, i, &tp.spans[i])
		}
	}
	for _, sts := range [][]*serverTrace{p.engines, p.handlers} {
		for _, st := range sts {
			spans := st.retained()
			for i := range spans {
				line("server-node", st.node, i, &spans[i])
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
