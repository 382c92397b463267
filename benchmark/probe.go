package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// Transaction classes the clock sorts latencies into. A transaction
// is a write when any mutation flowed through it, else a scan when a
// scan did, else a read.
const (
	classRead = iota
	classScan
	classWrite
	numClasses
)

// probe is the measurement state of the one trial that is running.
// The db middleware registry is process-wide and its factories get no
// handle to their caller, so the harness publishes the current trial's
// probe in active and the factories pick it up from there.
type probe struct {
	// on gates recording to the run phase: load, validation and the
	// ladder cells flow through the same decorators unrecorded.
	on atomic.Bool
	// traced turns the span decorators on; the clock always runs.
	traced bool
	// keepEvery retains the spans of every k-th transaction (and every
	// k-th server-side call) for percentiles and the NDJSON dump; the
	// per-layer sums always cover every span.
	keepEvery uint32
	// epoch is the start of the run phase; span times count from it.
	epoch time.Time

	mu      sync.Mutex
	threads map[*measurement.Recorder]*threadProbe
	order   []*threadProbe

	engines  []*serverTrace // one per node, engine seam
	handlers []*serverTrace // one per node, http.Handler seam

	scanViolations atomic.Int64
	firstViolation atomic.Value // string
}

var active atomic.Pointer[probe]

func newProbe(traced bool, keepEvery uint32) *probe {
	if keepEvery == 0 {
		keepEvery = 1
	}
	return &probe{traced: traced, keepEvery: keepEvery, threads: make(map[*measurement.Recorder]*threadProbe)}
}

func (p *probe) now() int64 { return int64(time.Since(p.epoch)) }

// thread returns the state of the client thread that owns rec. The
// client hands every middleware factory of one thread the same
// recorder, which makes it the thread's identity here.
func (p *probe) thread(rec *measurement.Recorder) *threadProbe {
	p.mu.Lock()
	defer p.mu.Unlock()
	tp := p.threads[rec]
	if tp == nil {
		tp = &threadProbe{p: p, id: len(p.order), cur: -1}
		for c := range tp.lat {
			tp.lat[c] = make([]int64, 0, 1<<16)
		}
		p.threads[rec] = tp
		p.order = append(p.order, tp)
	}
	return tp
}

func (p *probe) violation(format string, args ...any) {
	if p.scanViolations.Add(1) == 1 {
		p.firstViolation.Store(fmt.Sprintf(format, args...))
	}
}

// threadProbe is one client thread's private recording state. Only
// that thread touches it while the run phase is on; the harness reads
// it after the phase has returned.
type threadProbe struct {
	p  *probe
	id int

	// Clock: whole-transaction latencies in ns, by class.
	txStart   time.Time
	sawMut    bool
	sawScan   bool
	lat       [numClasses][]int64
	okCount   [numClasses]int64
	failed    int64
	userBytes int64 // key + field bytes handed to Insert/Update
	delivered int64 // records scans returned to the workload
	dbOps     int64 // data operations (not Start/Commit/Abort)

	// Tracing.
	spans []span
	cur   int32 // innermost open retained span, -1 for none
	tx    uint32
	keep  bool
	// The open transaction's root span and its start.
	txSpan    int32
	txStartNS int64
	dropped   int64
	sum       [numLayers][numKinds]int64 // ns
	cnt       [numLayers][numKinds]int64
	// The client passes one constant context per thread, so the
	// derived context that carries this struct is built once.
	parentCtx  context.Context
	derivedCtx context.Context
}

func init() {
	db.RegisterMiddleware("benchclock", func(env db.MiddlewareEnv) (db.Middleware, error) {
		p, tp, err := factoryState(env)
		if err != nil || !p.on.Load() {
			return identity, err
		}
		return func(inner db.DB) db.DB { return &clockDB{inner: inner, tp: tp} }, nil
	})
	spanMiddleware := func(l layer) db.MiddlewareFactory {
		return func(env db.MiddlewareEnv) (db.Middleware, error) {
			p, tp, err := factoryState(env)
			if err != nil || !p.on.Load() || !p.traced {
				return identity, err
			}
			return db.Intercept(func(ctx context.Context, info db.OpInfo, call func(context.Context) error) error {
				return tp.intercept(l, ctx, info, call)
			}), nil
		}
	}
	db.RegisterMiddleware("benchspan_outer", spanMiddleware(layerOuter))
	db.RegisterMiddleware("benchspan_inner", spanMiddleware(layerInner))
}

func identity(inner db.DB) db.DB { return inner }

func factoryState(env db.MiddlewareEnv) (*probe, *threadProbe, error) {
	p := active.Load()
	if p == nil {
		return nil, nil, errors.New("benchmark middleware used outside a trial")
	}
	if env.Recorder == nil {
		return nil, nil, errors.New("benchmark middleware needs the thread's measurement recorder")
	}
	return p, p.thread(env.Recorder), nil
}

// clockDB is the "benchclock" middleware: it stamps Start → end of
// Commit/Abort at ns resolution (internal/measurement keeps 1 ms
// buckets, too coarse for every series here), classifies the
// transaction by the operations seen in between, and checks every
// scan result. It is a full wrapper rather than a db.Interceptor
// because it must see results and payloads.
type clockDB struct {
	inner db.DB
	tp    *threadProbe
}

var (
	_ db.TransactionalDB = (*clockDB)(nil)
	_ db.ContextualDB    = (*clockDB)(nil)
)

func (c *clockDB) Init(p *properties.Properties) error { return c.inner.Init(p) }
func (c *clockDB) Cleanup() error                      { return c.inner.Cleanup() }

func (c *clockDB) Start(ctx context.Context) (*db.TransactionContext, error) {
	tp := c.tp
	tp.sawMut, tp.sawScan = false, false
	tp.txStart = time.Now()
	return db.Transactional(c.inner).Start(ctx)
}

func (c *clockDB) Commit(ctx context.Context, tctx *db.TransactionContext) error {
	err := db.Transactional(c.inner).Commit(ctx, tctx)
	c.tp.finish(err == nil)
	return err
}

func (c *clockDB) Abort(ctx context.Context, tctx *db.TransactionContext) error {
	err := db.Transactional(c.inner).Abort(ctx, tctx)
	c.tp.finish(false)
	return err
}

func (tp *threadProbe) finish(ok bool) {
	d := time.Since(tp.txStart)
	class := classRead
	switch {
	case tp.sawMut:
		class = classWrite
	case tp.sawScan:
		class = classScan
	}
	tp.lat[class] = append(tp.lat[class], int64(d))
	if ok {
		tp.okCount[class]++
	} else {
		tp.failed++
	}
}

func (c *clockDB) WithTx(tctx *db.TransactionContext) db.DB {
	if cdb, ok := c.inner.(db.ContextualDB); ok {
		return &clockDB{inner: cdb.WithTx(tctx), tp: c.tp}
	}
	return c
}

func (c *clockDB) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	c.tp.dbOps++
	return c.inner.Read(ctx, table, key, fields)
}

func (c *clockDB) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	tp := c.tp
	tp.dbOps++
	tp.sawScan = true
	kvs, err := c.inner.Scan(ctx, table, startKey, count, fields)
	if err == nil {
		tp.delivered += int64(len(kvs))
		if len(kvs) > count {
			tp.p.violation("scan from %q returned %d records, asked for %d", startKey, len(kvs), count)
		}
		prev := ""
		for i, kv := range kvs {
			if kv.Key < startKey || (i > 0 && kv.Key <= prev) {
				tp.p.violation("scan from %q out of order at %d: %q after %q", startKey, i, kv.Key, prev)
				break
			}
			prev = kv.Key
		}
	}
	return kvs, err
}

func (tp *threadProbe) mutation(key string, values db.Record) {
	tp.dbOps++
	tp.sawMut = true
	n := len(key)
	for f, v := range values {
		n += len(f) + len(v)
	}
	tp.userBytes += int64(n)
}

func (c *clockDB) Update(ctx context.Context, table, key string, values db.Record) error {
	c.tp.mutation(key, values)
	return c.inner.Update(ctx, table, key, values)
}

func (c *clockDB) Insert(ctx context.Context, table, key string, values db.Record) error {
	c.tp.mutation(key, values)
	return c.inner.Insert(ctx, table, key, values)
}

func (c *clockDB) Delete(ctx context.Context, table, key string) error {
	c.tp.mutation(key, nil)
	return c.inner.Delete(ctx, table, key)
}
