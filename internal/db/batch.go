package db

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// BatchOp is one logical operation inside a multi-key batch: OpRead,
// OpUpdate, OpInsert or OpDelete plus its target and payload. Scans
// and demarcation ops are never batched.
type BatchOp struct {
	Op     Op
	Table  string
	Key    string
	Fields []string // read projection (nil = all fields)
	Values Record   // write payload
}

// BatchResult is the positional outcome of one BatchOp: out[i]
// answers in[i], and a failed item never aborts the rest.
type BatchResult struct {
	Record Record // read result (nil for writes and misses)
	Err    error
}

// BatchDB is the optional capability interface bindings implement
// when they can execute a multi-key batch cheaper than N single
// operations — one engine lock round per touched partition (kvstore),
// one wire round trip (httpkv), one latency/token charge (cloudsim).
type BatchDB interface {
	DB
	// ExecBatch executes the ops and returns positional results.
	ExecBatch(ctx context.Context, ops []BatchOp) []BatchResult
}

// ExecBatch executes ops against d: natively when d implements
// BatchDB, otherwise as sequential single operations. Either way the
// results are positional and per-item.
func ExecBatch(ctx context.Context, d DB, ops []BatchOp) []BatchResult {
	if bdb, ok := d.(BatchDB); ok {
		return bdb.ExecBatch(ctx, ops)
	}
	return ExecEach(ctx, d, ops)
}

// ExecEach answers ops with one single operation each, in order: the
// fallback under ExecBatch, and what a BatchDB binding answers with
// when the endpoint it talks to has no batch path.
func ExecEach(ctx context.Context, d DB, ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	for i := range ops {
		out[i] = execOne(ctx, d, ops[i])
	}
	return out
}

func execOne(ctx context.Context, d DB, op BatchOp) BatchResult {
	switch op.Op {
	case OpRead:
		rec, err := d.Read(ctx, op.Table, op.Key, op.Fields)
		return BatchResult{Record: rec, Err: err}
	case OpUpdate:
		return BatchResult{Err: d.Update(ctx, op.Table, op.Key, op.Values)}
	case OpInsert:
		return BatchResult{Err: d.Insert(ctx, op.Table, op.Key, op.Values)}
	case OpDelete:
		return BatchResult{Err: d.Delete(ctx, op.Table, op.Key)}
	default:
		return BatchResult{Err: fmt.Errorf("%w: cannot batch %v", ErrNotSupported, op.Op)}
	}
}

// batchItem is one operation waiting in the coalescer, with the
// enqueuing thread's own DB view so flushes never execute an item
// against another thread's binding state.
type batchItem struct {
	op    BatchOp
	inner DB
	res   BatchResult
	done  chan struct{}
}

// coalescer merges operations from every client thread of a run into
// multi-key batches. A thread enqueues and blocks; the batch flushes
// when it reaches size (the arriving thread is the flush leader) or
// when the linger timer fires, whichever is first. One coalescer is
// shared by all threads via MiddlewareState — a per-thread coalescer
// would be useless, since each thread issues operations sequentially
// and its own next op can never arrive while it waits.
type coalescer struct {
	size   int
	linger time.Duration

	mu    sync.Mutex
	buf   []*batchItem
	gen   uint64 // bumped per flush so stale linger timers no-op
	timer *time.Timer

	// Flush-side instrumentation, donated by whichever thread built
	// the coalescer (shards are atomic, so cross-thread use is safe).
	readH  *measurement.SeriesRecorder
	writeH *measurement.SeriesRecorder
	obs    OpObserver
}

// do enqueues op and blocks until its batch flushes or ctx ends.
// A context-cancelled caller abandons its item; the flusher still
// executes it (the batch may already be on the wire).
func (c *coalescer) do(ctx context.Context, inner DB, op BatchOp) BatchResult {
	it := &batchItem{op: op, inner: inner, done: make(chan struct{})}
	c.mu.Lock()
	c.buf = append(c.buf, it)
	if len(c.buf) >= c.size {
		batch := c.takeLocked()
		c.mu.Unlock()
		c.flush(batch)
	} else {
		if len(c.buf) == 1 {
			gen := c.gen
			c.timer = time.AfterFunc(c.linger, func() { c.flushAfterLinger(gen) })
		}
		c.mu.Unlock()
	}
	select {
	case <-it.done:
		return it.res
	case <-ctx.Done():
		return BatchResult{Err: ctx.Err()}
	}
}

// takeLocked claims the pending batch and invalidates its timer.
func (c *coalescer) takeLocked() []*batchItem {
	batch := c.buf
	c.buf = nil
	c.gen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// flushAfterLinger is the linger-timer path: flush whatever has
// accumulated, unless the batch it was armed for already flushed.
func (c *coalescer) flushAfterLinger(gen uint64) {
	c.mu.Lock()
	if c.gen != gen || len(c.buf) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.flush(batch)
}

// flush executes one batch and wakes its waiters. When every item was
// enqueued against the same DB (the common case — threads share one
// binding) the whole batch goes through ExecBatch and can hit the
// native BatchDB path; otherwise each item runs against its own view.
// The flush context is Background on purpose: items from many threads
// share the round trip, so no single caller's deadline governs it.
func (c *coalescer) flush(batch []*batchItem) {
	start := time.Now()
	sameInner := true
	for _, it := range batch {
		if it.inner != batch[0].inner {
			sameInner = false
			break
		}
	}
	if sameInner {
		ops := make([]BatchOp, len(batch))
		for i, it := range batch {
			ops[i] = it.op
		}
		for i, res := range ExecBatch(context.Background(), batch[0].inner, ops) {
			batch[i].res = res
		}
	} else {
		for _, it := range batch {
			it.res = execOne(context.Background(), it.inner, it.op)
		}
	}
	d := time.Since(start)
	c.record(batch, d)
	for _, it := range batch {
		close(it.done)
	}
}

// record lands the flush in the BATCH-READ / BATCH-UPDATE series (one
// sample per item via MeasureN, so Operations counts logical ops and
// AvgUS is the amortized per-item round trip) and reports one event
// per direction to the trace observer with the item count.
func (c *coalescer) record(batch []*batchItem, d time.Duration) {
	var reads, writes int
	var readCodes, writeCodes map[int]int64
	var readErr, writeErr error
	for _, it := range batch {
		code := ReturnCode(it.res.Err)
		if it.op.Op == OpRead {
			reads++
			if readCodes == nil {
				readCodes = map[int]int64{}
			}
			readCodes[code]++
			if readErr == nil {
				readErr = it.res.Err
			}
		} else {
			writes++
			if writeCodes == nil {
				writeCodes = map[int]int64{}
			}
			writeCodes[code]++
			if writeErr == nil {
				writeErr = it.res.Err
			}
		}
	}
	if c.readH != nil {
		for code, n := range readCodes {
			c.readH.MeasureN(d, code, n)
		}
	}
	if c.writeH != nil {
		for code, n := range writeCodes {
			c.writeH.MeasureN(d, code, n)
		}
	}
	if c.obs != nil {
		if reads > 0 {
			c.obs.ObserveOp(OpInfo{Op: OpBatchRead, Items: reads}, d, readErr)
		}
		if writes > 0 {
			c.obs.ObserveOp(OpInfo{Op: OpBatchWrite, Items: writes}, d, writeErr)
		}
	}
}

// batchingDB routes point reads and writes through the shared
// coalescer; scans, lifecycle and transaction demarcation pass
// straight through. Inside an explicit transaction (WithTx) the
// in-transaction view keeps batching only when the binding has no
// per-transaction state, so transactional bindings keep their
// isolation.
type batchingDB struct {
	inner DB
	co    *coalescer
}

// Unwrap returns the wrapped DB (for introspection and tests).
func (b *batchingDB) Unwrap() DB { return b.inner }

// Init forwards to the wrapped binding.
func (b *batchingDB) Init(p *properties.Properties) error { return b.inner.Init(p) }

// Cleanup forwards to the wrapped binding.
func (b *batchingDB) Cleanup() error { return b.inner.Cleanup() }

// Read coalesces the read into the next batch flush.
func (b *batchingDB) Read(ctx context.Context, table, key string, fields []string) (Record, error) {
	res := b.co.do(ctx, b.inner, BatchOp{Op: OpRead, Table: table, Key: key, Fields: fields})
	return res.Record, res.Err
}

// Scan bypasses the coalescer: scans are already multi-record.
func (b *batchingDB) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]KV, error) {
	return b.inner.Scan(ctx, table, startKey, count, fields)
}

// Update coalesces the update into the next batch flush.
func (b *batchingDB) Update(ctx context.Context, table, key string, values Record) error {
	return b.co.do(ctx, b.inner, BatchOp{Op: OpUpdate, Table: table, Key: key, Values: values}).Err
}

// Insert coalesces the insert into the next batch flush.
func (b *batchingDB) Insert(ctx context.Context, table, key string, values Record) error {
	return b.co.do(ctx, b.inner, BatchOp{Op: OpInsert, Table: table, Key: key, Values: values}).Err
}

// Delete coalesces the delete into the next batch flush.
func (b *batchingDB) Delete(ctx context.Context, table, key string) error {
	return b.co.do(ctx, b.inner, BatchOp{Op: OpDelete, Table: table, Key: key}).Err
}

// Start forwards transaction start to the wrapped binding.
func (b *batchingDB) Start(ctx context.Context) (*TransactionContext, error) {
	return Transactional(b.inner).Start(ctx)
}

// Commit forwards transaction commit to the wrapped binding.
func (b *batchingDB) Commit(ctx context.Context, tctx *TransactionContext) error {
	return Transactional(b.inner).Commit(ctx, tctx)
}

// Abort forwards transaction abort to the wrapped binding.
func (b *batchingDB) Abort(ctx context.Context, tctx *TransactionContext) error {
	return Transactional(b.inner).Abort(ctx, tctx)
}

// WithTx keeps batching across no-op demarcation (the binding has no
// per-transaction view, so every thread still shares one DB and the
// native batch path stays reachable) but steps aside for contextual
// bindings, whose per-transaction views must not mix across threads.
func (b *batchingDB) WithTx(tctx *TransactionContext) DB {
	if _, ok := b.inner.(ContextualDB); ok {
		return TxView(b.inner, tctx)
	}
	return b
}

var (
	_ TransactionalDB = (*batchingDB)(nil)
	_ ContextualDB    = (*batchingDB)(nil)
	_ BatchDB         = (*batchingDB)(nil)
)

// ExecBatch forwards a pre-formed batch to the wrapped binding — a
// caller that already has a batch in hand gains nothing from the
// coalescer.
func (b *batchingDB) ExecBatch(ctx context.Context, ops []BatchOp) []BatchResult {
	return ExecBatch(ctx, b.inner, ops)
}

func init() {
	RegisterMiddleware("batching", func(env MiddlewareEnv) (Middleware, error) {
		size := env.Props.GetInt("batch.size", 1)
		linger := time.Duration(env.Props.GetInt64("batch.linger_ms", 1)) * time.Millisecond
		if size <= 1 || linger <= 0 || env.Shared == nil {
			// Batching off (or nothing to share across threads):
			// identity middleware keeps the stack spec valid.
			return func(d DB) DB { return d }, nil
		}
		co := env.Shared.LoadOrCreate("batching", func() any {
			c := &coalescer{size: size, linger: linger, obs: env.Observer}
			if env.Recorder != nil {
				c.readH = env.Recorder.Series(SeriesBatchRead)
				c.writeH = env.Recorder.Series(SeriesBatchUpdate)
			}
			return c
		}).(*coalescer)
		return func(inner DB) DB { return &batchingDB{inner: inner, co: co} }, nil
	})
}
