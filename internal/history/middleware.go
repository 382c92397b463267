package history

import (
	"context"
	"strconv"
	"sync/atomic"

	"ycsbt/internal/db"

	"ycsbt/internal/properties"
)

// captureClock timestamps middleware-captured transactions. One
// process-wide clock keeps timestamps comparable across sessions.
var captureClock clock

// captureSeq makes middleware transaction ids unique across all
// middleware instances and phases of one process.
var captureSeq atomic.Uint64

// Middleware returns the history-capture middleware for bindings
// without native transaction machinery: it groups the operations
// between Start and Commit/Abort into one TxnRecord — reads and
// writes with the versions the binding reported through the
// db.ReportReadVersion / db.ReportWriteVersion context protocol — and
// records it with start/commit timestamps and outcome. Operations
// outside a demarcated transaction become single-op auto-commit
// records. Scans carry no per-record version and are not captured.
//
// Stack it innermost (last), directly over the binding, so the layers
// above it (a middleware that re-invokes or skips a call) do not
// distort the recorded history. A middleware instance is confined to one client thread,
// like every middleware built per thread.
//
// The wrapper is hand-written rather than lifted through db.Intercept:
// interception allocates a closure per call, and capture sits on every
// operation of every thread — the direct form keeps the steady-state
// overhead to the version-capture context lookup plus one channel send
// per transaction.
//
// For bindings that implement CapableDB (txnkv), install the sink
// there instead — the transaction manager records richer histories
// (MVCC versions across stores, commit timestamps at the TSR write)
// and stacking both would record every transaction twice.
func Middleware(sink TxnSink, session int) db.Middleware {
	return func(inner db.DB) db.DB {
		return &capture{inner: inner, thread: &thread{tdb: db.Transactional(inner), sink: sink, session: session}}
	}
}

// capture wraps the binding, or one of its in-transaction views, over
// the capture state of the thread it serves; the views of a thread
// share the state with the wrapper by pointer.
type capture struct {
	inner db.DB
	*thread
}

// thread is one client thread's capture state.
type thread struct {
	tdb     db.TransactionalDB
	sink    TxnSink
	session int

	// Context caching: the client passes the same base context to
	// every operation of a thread, so the derived capture context and
	// struct are built once and reused — zero allocations per op on
	// the steady path.
	baseCtx context.Context
	capCtx  context.Context
	vc      *db.VersionCapture

	cur *TxnRecord // open transaction, nil between transactions
}

func (m *thread) armed(ctx context.Context) context.Context {
	if ctx != m.baseCtx || m.capCtx == nil {
		m.vc = &db.VersionCapture{}
		m.baseCtx = ctx
		m.capCtx = db.WithVersionCapture(ctx, m.vc)
	}
	m.vc.Reset()
	return m.capCtx
}

func (m *thread) begin() *TxnRecord {
	id := make([]byte, 0, 20)
	id = append(id, 's')
	id = strconv.AppendInt(id, int64(m.session), 10)
	id = append(id, '-')
	id = strconv.AppendUint(id, captureSeq.Add(1), 10)
	return &TxnRecord{
		ID:      string(id),
		Session: m.session,
		StartTS: captureClock.now(),
		Ops:     make([]Op, 0, 4),
	}
}

func (m *thread) finish(rec *TxnRecord, committed bool) {
	if rec == nil {
		return
	}
	if committed {
		rec.Outcome = OutcomeCommit
		rec.CommitTS = captureClock.now()
	} else {
		rec.Outcome = OutcomeAbort
	}
	if len(rec.Ops) > 0 {
		m.sink.RecordTxn(rec)
	}
}

// open returns the transaction to record into, beginning an
// auto-commit one (auto = true) when no demarcated transaction is
// underway.
func (m *thread) open() (rec *TxnRecord, auto bool) {
	if m.cur != nil {
		return m.cur, false
	}
	return m.begin(), true
}

// note appends one successful op to rec and closes it when it was an
// auto-commit wrapper.
func (m *thread) note(rec *TxnRecord, auto bool, err error, kind, table, key string, ver uint64) {
	if err == nil {
		rec.Ops = append(rec.Ops, Op{Kind: kind, Table: table, Key: key, Ver: ver})
	}
	if auto {
		m.finish(rec, err == nil)
	}
}

// Init forwards to the wrapped binding.
func (m *capture) Init(p *properties.Properties) error { return m.inner.Init(p) }

// Cleanup forwards to the wrapped binding.
func (m *capture) Cleanup() error { return m.inner.Cleanup() }

// Unwrap returns the wrapped DB (for introspection and tests).
func (m *capture) Unwrap() db.DB { return m.inner }

// Read implements db.DB, recording the version the binding reports.
func (m *capture) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	rec, auto := m.open()
	out, err := m.inner.Read(m.armed(ctx), table, key, fields)
	m.note(rec, auto, err, OpRead, table, key, m.vc.ReadVer)
	return out, err
}

// Scan implements db.DB; range reads carry no per-record version and
// are passed through uncaptured.
func (m *capture) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	return m.inner.Scan(ctx, table, startKey, count, fields)
}

// Update implements db.DB.
func (m *capture) Update(ctx context.Context, table, key string, values db.Record) error {
	rec, auto := m.open()
	err := m.inner.Update(m.armed(ctx), table, key, values)
	m.note(rec, auto, err, OpWrite, table, key, m.vc.WriteVer)
	return err
}

// Insert implements db.DB.
func (m *capture) Insert(ctx context.Context, table, key string, values db.Record) error {
	rec, auto := m.open()
	err := m.inner.Insert(m.armed(ctx), table, key, values)
	m.note(rec, auto, err, OpWrite, table, key, m.vc.WriteVer)
	return err
}

// Delete implements db.DB.
func (m *capture) Delete(ctx context.Context, table, key string) error {
	rec, auto := m.open()
	err := m.inner.Delete(m.armed(ctx), table, key)
	m.note(rec, auto, err, OpDelete, table, key, m.vc.WriteVer)
	return err
}

// Start implements db.TransactionalDB: a successful start opens the
// record the following operations land in.
func (m *capture) Start(ctx context.Context) (*db.TransactionContext, error) {
	tctx, err := m.tdb.Start(ctx)
	if err == nil {
		m.cur = m.begin()
	}
	return tctx, err
}

// Commit implements db.TransactionalDB.
func (m *capture) Commit(ctx context.Context, tctx *db.TransactionContext) error {
	err := m.tdb.Commit(ctx, tctx)
	m.finish(m.cur, err == nil)
	m.cur = nil
	return err
}

// Abort implements db.TransactionalDB.
func (m *capture) Abort(ctx context.Context, tctx *db.TransactionContext) error {
	err := m.tdb.Abort(ctx, tctx)
	m.finish(m.cur, false)
	m.cur = nil
	return err
}

// WithTx implements db.ContextualDB: in-transaction operations on the
// view record into the same open transaction.
func (m *capture) WithTx(tctx *db.TransactionContext) db.DB {
	if cdb, ok := m.inner.(db.ContextualDB); ok {
		return &capture{inner: cdb.WithTx(tctx), thread: m.thread}
	}
	return m
}

var (
	_ db.TransactionalDB = (*capture)(nil)
	_ db.ContextualDB    = (*capture)(nil)
)
