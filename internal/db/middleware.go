package db

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// Middleware wraps a DB with extra behaviour — measurement, history
// capture, a harness's probes — without the binding or the client
// knowing about it. Middlewares compose with Chain.
type Middleware func(DB) DB

// Chain stacks middlewares over base in declared order: the first
// middleware is the outermost layer, so with Chain(base, a, b) an
// operation flows a → b → base. The returned DB always implements
// TransactionalDB and ContextualDB (with the paper's no-op defaults
// when base is a plain YCSB binding), so callers can demarcate
// transactions without type switching.
func Chain(base DB, mws ...Middleware) DB {
	d := base
	for i := len(mws) - 1; i >= 0; i-- {
		d = mws[i](d)
	}
	return d
}

// Op identifies one intercepted database operation.
type Op uint8

// Intercepted operations, raw CRUD first, then transaction
// demarcation.
const (
	OpRead Op = iota
	OpScan
	OpUpdate
	OpInsert
	OpDelete
	OpStart
	OpCommit
	OpAbort
	numOps
)

var opSeries = [numOps]string{
	SeriesRead, SeriesScan, SeriesUpdate, SeriesInsert, SeriesDelete,
	SeriesStart, SeriesCommit, SeriesAbort,
}

// Series returns the measurement series name of the operation
// ("READ", "COMMIT", …).
func (o Op) Series() string {
	if o < numOps {
		return opSeries[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// String returns the series name.
func (o Op) String() string { return o.Series() }

// Demarcation reports whether the op is Start, Commit or Abort.
func (o Op) Demarcation() bool { return o >= OpStart }

// OpInfo describes one operation flowing through an interceptor.
type OpInfo struct {
	// Op is the operation kind.
	Op Op
	// Table is the target table ("" for demarcation ops).
	Table string
	// Key is the target key (the start key for scans, "" for
	// demarcation ops).
	Key string
}

// Interceptor is the uniform around-advice every middleware reduces
// to: it runs arbitrary code before/after the operation, may mutate
// the context, and may skip the call entirely or invoke it more than
// once. call is re-invocable.
type Interceptor func(ctx context.Context, info OpInfo, call func(context.Context) error) error

// Intercept lifts an Interceptor into a Middleware: the returned
// wrapper routes all nine DB operations — including Start, Commit and
// Abort — through fn, so a middleware is written once and observes
// raw ops and transaction demarcation alike.
func Intercept(fn Interceptor) Middleware {
	return func(inner DB) DB {
		return &intercepted{inner: inner, fn: fn}
	}
}

// intercepted is the generic middleware wrapper. It satisfies
// TransactionalDB (falling back to the paper's no-op demarcation when
// the inner binding is not transactional) and ContextualDB (the
// in-transaction view is wrapped with the same interceptor, so
// in-transaction operations are observed too).
type intercepted struct {
	inner DB
	fn    Interceptor
}

// Unwrap returns the wrapped DB (for introspection and tests).
func (w *intercepted) Unwrap() DB { return w.inner }

// Init forwards to the wrapped binding uninstrumented.
func (w *intercepted) Init(p *properties.Properties) error { return w.inner.Init(p) }

// Cleanup forwards to the wrapped binding uninstrumented.
func (w *intercepted) Cleanup() error { return w.inner.Cleanup() }

// Read routes a read through the interceptor.
func (w *intercepted) Read(ctx context.Context, table, key string, fields []string) (Record, error) {
	var rec Record
	err := w.fn(ctx, OpInfo{Op: OpRead, Table: table, Key: key}, func(ctx context.Context) error {
		var err error
		rec, err = w.inner.Read(ctx, table, key, fields)
		return err
	})
	return rec, err
}

// Scan routes a scan through the interceptor.
func (w *intercepted) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]KV, error) {
	var kvs []KV
	err := w.fn(ctx, OpInfo{Op: OpScan, Table: table, Key: startKey}, func(ctx context.Context) error {
		var err error
		kvs, err = w.inner.Scan(ctx, table, startKey, count, fields)
		return err
	})
	return kvs, err
}

// Update routes an update through the interceptor.
func (w *intercepted) Update(ctx context.Context, table, key string, values Record) error {
	return w.fn(ctx, OpInfo{Op: OpUpdate, Table: table, Key: key}, func(ctx context.Context) error {
		return w.inner.Update(ctx, table, key, values)
	})
}

// Insert routes an insert through the interceptor.
func (w *intercepted) Insert(ctx context.Context, table, key string, values Record) error {
	return w.fn(ctx, OpInfo{Op: OpInsert, Table: table, Key: key}, func(ctx context.Context) error {
		return w.inner.Insert(ctx, table, key, values)
	})
}

// Delete routes a delete through the interceptor.
func (w *intercepted) Delete(ctx context.Context, table, key string) error {
	return w.fn(ctx, OpInfo{Op: OpDelete, Table: table, Key: key}, func(ctx context.Context) error {
		return w.inner.Delete(ctx, table, key)
	})
}

// Start routes transaction start through the interceptor. When the
// wrapped binding is not transactional the paper's no-op default
// applies and the measured latency is the cost of doing nothing —
// exactly what Listing 3 shows for the raw store ([START] avg
// 0.08 µs).
func (w *intercepted) Start(ctx context.Context) (*TransactionContext, error) {
	var tctx *TransactionContext
	err := w.fn(ctx, OpInfo{Op: OpStart}, func(ctx context.Context) error {
		var err error
		tctx, err = Transactional(w.inner).Start(ctx)
		return err
	})
	return tctx, err
}

// Commit routes transaction commit through the interceptor.
func (w *intercepted) Commit(ctx context.Context, tctx *TransactionContext) error {
	return w.fn(ctx, OpInfo{Op: OpCommit}, func(ctx context.Context) error {
		return Transactional(w.inner).Commit(ctx, tctx)
	})
}

// Abort routes transaction abort through the interceptor.
func (w *intercepted) Abort(ctx context.Context, tctx *TransactionContext) error {
	return w.fn(ctx, OpInfo{Op: OpAbort}, func(ctx context.Context) error {
		return Transactional(w.inner).Abort(ctx, tctx)
	})
}

// WithTx returns a view whose in-transaction operations flow through
// the same interceptor, so they land in the same series / trace.
func (w *intercepted) WithTx(tctx *TransactionContext) DB {
	if cdb, ok := w.inner.(ContextualDB); ok {
		return &intercepted{inner: cdb.WithTx(tctx), fn: w.fn}
	}
	return w
}

var (
	_ TransactionalDB = (*intercepted)(nil)
	_ ContextualDB    = (*intercepted)(nil)
)

// nonTx adapts a plain YCSB binding to TransactionalDB with the
// paper's no-op demarcation.
type nonTx struct {
	DB
	NoTransactions
}

// WithTx forwards to the wrapped binding's view when it has one.
func (n nonTx) WithTx(tctx *TransactionContext) DB { return TxView(n.DB, tctx) }

// Transactional returns d as a TransactionalDB, adapting plain
// bindings with no-op Start/Commit/Abort ("backward compatible with
// YCSB").
func Transactional(d DB) TransactionalDB {
	if tdb, ok := d.(TransactionalDB); ok {
		return tdb
	}
	return nonTx{DB: d}
}

// TxView returns the view of d that executes inside tctx, or d itself
// when the binding has no per-transaction views.
func TxView(d DB, tctx *TransactionContext) DB {
	if cdb, ok := d.(ContextualDB); ok {
		return cdb.WithTx(tctx)
	}
	return d
}

// MiddlewareEnv carries the dependencies property-built middlewares
// need: the calling thread's measurement recorder (for "metered").
type MiddlewareEnv struct {
	Recorder *measurement.Recorder
}

// MiddlewareFactory builds one middleware from the environment.
type MiddlewareFactory func(env MiddlewareEnv) (Middleware, error)

var (
	mwMu       sync.RWMutex
	mwRegistry = make(map[string]MiddlewareFactory)
)

// RegisterMiddleware makes a middleware available by name to
// property-driven stacks ("middleware=metered"). Like
// Register, duplicate names panic at init time.
func RegisterMiddleware(name string, f MiddlewareFactory) {
	mwMu.Lock()
	defer mwMu.Unlock()
	if _, dup := mwRegistry[name]; dup {
		panic(fmt.Sprintf("db: duplicate middleware registration of %q", name))
	}
	mwRegistry[name] = f
}

// MiddlewareNames returns the registered middleware names, sorted.
func MiddlewareNames() []string {
	mwMu.RLock()
	defer mwMu.RUnlock()
	names := make([]string, 0, len(mwRegistry))
	for n := range mwRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseMiddlewares splits a comma-separated middleware spec
// (outermost first) and validates every name against the registry.
func ParseMiddlewares(spec string) ([]string, error) {
	var names []string
	for _, raw := range strings.Split(spec, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		mwMu.RLock()
		_, ok := mwRegistry[name]
		mwMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("db: unknown middleware %q (have %v)", name, MiddlewareNames())
		}
		names = append(names, name)
	}
	return names, nil
}

// BuildMiddlewares instantiates the named middlewares (outermost
// first, ready for Chain) against the environment. It is called once
// per client thread so the "metered" layer binds to that thread's
// private recorder shards.
func BuildMiddlewares(names []string, env MiddlewareEnv) ([]Middleware, error) {
	out := make([]Middleware, 0, len(names))
	for _, name := range names {
		mwMu.RLock()
		f, ok := mwRegistry[name]
		mwMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("db: unknown middleware %q (have %v)", name, MiddlewareNames())
		}
		mw, err := f(env)
		if err != nil {
			return nil, fmt.Errorf("db: building middleware %q: %w", name, err)
		}
		out = append(out, mw)
	}
	return out, nil
}

func init() {
	RegisterMiddleware("metered", func(env MiddlewareEnv) (Middleware, error) {
		if env.Recorder == nil {
			return nil, errors.New("metered middleware needs a measurement recorder")
		}
		return Metered(env.Recorder), nil
	})
}
