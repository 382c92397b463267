package db

import (
	"context"
	"time"

	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// Series names used by the metered middleware; the client layer adds
// the "TX-" prefixed whole-transaction series on top (Tier 5).
const (
	SeriesRead   = "READ"
	SeriesScan   = "SCAN"
	SeriesUpdate = "UPDATE"
	SeriesInsert = "INSERT"
	SeriesDelete = "DELETE"
	SeriesStart  = "START"
	SeriesCommit = "COMMIT"
	SeriesAbort  = "ABORT"
)

// Metered returns the measurement middleware: every operation's
// latency and return code land in rec's private series shards. This
// is the Tier 5 capture point for individual database operations: the
// same series names appear whether the run is transactional or not,
// so the overhead of transactional execution can be compared
// directly.
//
// The per-operation cost is one time.Now pair plus a handful of
// uncontended atomics — the series handles are resolved once here, so
// the hot path touches no map and takes no lock, and the wrapper is
// written out rather than lifted through Intercept, so a call
// allocates nothing. Allocate one recorder per client thread
// (Client.threadLoop does) and the shards never contend either.
func Metered(rec *measurement.Recorder) Middleware {
	h := new([numOps]*measurement.SeriesRecorder)
	for op := Op(0); op < numOps; op++ {
		h[op] = rec.Series(op.Series())
	}
	return func(inner DB) DB { return &metered{inner: inner, tdb: Transactional(inner), h: h} }
}

// metered is the measurement wrapper over a binding or one of its
// in-transaction views. Like intercepted, it satisfies TransactionalDB
// (with the paper's no-op demarcation over a plain binding) and
// ContextualDB (a view is wrapped over the same series handles).
type metered struct {
	inner DB
	tdb   TransactionalDB // nil on a view: see demarcation
	h     *[numOps]*measurement.SeriesRecorder
}

// demarcation returns inner as a TransactionalDB: adapted once for the
// chain's wrapper, per call for a view's, whose Start, Commit and Abort
// the client never calls — a view is made per transaction, and
// adapting a plain one would allocate.
func (m *metered) demarcation() TransactionalDB {
	if m.tdb != nil {
		return m.tdb
	}
	return Transactional(m.inner)
}

// done records one operation of kind op that started at t.
func (m *metered) done(op Op, t time.Time, err error) {
	m.h[op].Measure(time.Since(t), ReturnCode(err))
}

// Unwrap returns the wrapped DB (for introspection and tests).
func (m *metered) Unwrap() DB { return m.inner }

// Init forwards to the wrapped binding unmeasured.
func (m *metered) Init(p *properties.Properties) error { return m.inner.Init(p) }

// Cleanup forwards to the wrapped binding unmeasured.
func (m *metered) Cleanup() error { return m.inner.Cleanup() }

// Read implements DB.
func (m *metered) Read(ctx context.Context, table, key string, fields []string) (Record, error) {
	t := time.Now()
	rec, err := m.inner.Read(ctx, table, key, fields)
	m.done(OpRead, t, err)
	return rec, err
}

// Scan implements DB.
func (m *metered) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]KV, error) {
	t := time.Now()
	kvs, err := m.inner.Scan(ctx, table, startKey, count, fields)
	m.done(OpScan, t, err)
	return kvs, err
}

// Update implements DB.
func (m *metered) Update(ctx context.Context, table, key string, values Record) error {
	t := time.Now()
	err := m.inner.Update(ctx, table, key, values)
	m.done(OpUpdate, t, err)
	return err
}

// Insert implements DB.
func (m *metered) Insert(ctx context.Context, table, key string, values Record) error {
	t := time.Now()
	err := m.inner.Insert(ctx, table, key, values)
	m.done(OpInsert, t, err)
	return err
}

// Delete implements DB.
func (m *metered) Delete(ctx context.Context, table, key string) error {
	t := time.Now()
	err := m.inner.Delete(ctx, table, key)
	m.done(OpDelete, t, err)
	return err
}

// Start implements TransactionalDB. Over a plain binding it times the
// paper's no-op default — Listing 3's [START] for the raw store.
func (m *metered) Start(ctx context.Context) (*TransactionContext, error) {
	t := time.Now()
	tctx, err := m.demarcation().Start(ctx)
	m.done(OpStart, t, err)
	return tctx, err
}

// Commit implements TransactionalDB.
func (m *metered) Commit(ctx context.Context, tctx *TransactionContext) error {
	t := time.Now()
	err := m.demarcation().Commit(ctx, tctx)
	m.done(OpCommit, t, err)
	return err
}

// Abort implements TransactionalDB.
func (m *metered) Abort(ctx context.Context, tctx *TransactionContext) error {
	t := time.Now()
	err := m.demarcation().Abort(ctx, tctx)
	m.done(OpAbort, t, err)
	return err
}

// WithTx implements ContextualDB: the in-transaction view is wrapped
// once, over the same series, so its operations land beside the
// binding's.
func (m *metered) WithTx(tctx *TransactionContext) DB {
	if cdb, ok := m.inner.(ContextualDB); ok {
		return &metered{inner: cdb.WithTx(tctx), h: m.h}
	}
	return m
}

var (
	_ TransactionalDB = (*metered)(nil)
	_ ContextualDB    = (*metered)(nil)
)

// NewMetered wraps inner so its operations are measured into reg —
// the seed's decorator, now expressed as Chain(inner, Metered(…)).
// The returned DB implements TransactionalDB and ContextualDB. All
// callers share one recorder (and thus one set of shards), so prefer
// per-thread Metered recorders on hot paths.
func NewMetered(inner DB, reg *measurement.Registry) DB {
	return Chain(inner, Metered(reg.Recorder()))
}
