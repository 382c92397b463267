// Package client implements the YCSB+T workload executor: it drives a
// workload against a DB binding from N client threads, wraps every
// workload operation in a transaction (DB.Start before, DB.Commit on
// success, DB.Abort on failure — the Section IV-A architecture),
// captures the Tier 5 measurements (raw operation series, START /
// COMMIT / ABORT series, and the whole-transaction TX-<TYPE> series),
// and runs the Tier 6 validation stage after the phase completes.
//
// Bindings without transaction support inherit the no-op Start /
// Commit / Abort defaults, so the same client body measures both
// transactional and non-transactional systems — exactly how the paper
// compares them.
package client

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/workload"
)

// Config controls one benchmark phase execution. BuildConfig derives
// it from workload properties.
type Config struct {
	// Threads is the number of client threads (YCSB -threads).
	Threads int
	// OperationCount is the total operations of the transaction
	// phase.
	OperationCount int64
	// RecordCount is the number of records the load phase inserts.
	RecordCount int64
	// MaxExecutionTime bounds a phase's wall-clock time (0 = none).
	MaxExecutionTime time.Duration
	// TargetOpsPerSec throttles total throughput (0 = unthrottled).
	TargetOpsPerSec float64
	// HistogramBuckets is how many histogram lines the text report
	// prints per series (property "histogram.buckets").
	HistogramBuckets int
	// StatusInterval emits interim throughput lines to Status when
	// positive.
	StatusInterval time.Duration
	// Status receives interim status lines (nil = none).
	Status io.Writer
	// SkipValidation disables the Tier 6 stage.
	SkipValidation bool
	// TimelineInterval enables per-interval throughput recording
	// (YCSB's time-series measurement) when positive.
	TimelineInterval time.Duration
	// Middleware is the comma-separated middleware stack, outermost
	// first, that every client thread wraps around the binding
	// (property "middleware"; default "metered"). Empty means the
	// default.
	Middleware string
	// Props carries the run properties Open builds the workload and
	// binding from; nil means empty.
	Props *properties.Properties
	// History, when set, receives every finished transaction for
	// offline consistency certification (cmd/histcheck). Bindings
	// with native transaction machinery (history.CapableDB — txnkv)
	// feed it from their commit paths; any other binding gets the
	// capture middleware stacked innermost on every thread. cmd/ycsbt
	// wires this from the "history.file" property / -history flag.
	History history.TxnSink
}

// BuildConfig reads the standard YCSB/YCSB+T properties: threadcount,
// operationcount, recordcount, maxexecutiontime (seconds), target
// (total ops/sec), histogram.buckets, middleware.
func BuildConfig(p *properties.Properties) Config {
	return Config{
		Threads:          p.GetInt("threadcount", 1),
		OperationCount:   p.GetInt64("operationcount", 1000),
		RecordCount:      p.GetInt64("recordcount", p.GetInt64("insertcount", 1000)),
		MaxExecutionTime: time.Duration(p.GetInt64("maxexecutiontime", 0)) * time.Second,
		TargetOpsPerSec:  p.GetFloat("target", 0),
		HistogramBuckets: p.GetInt("histogram.buckets", 0),
		Middleware:       p.GetString("middleware", "metered"),
		Props:            p,
	}
}

// Result is the outcome of one executed phase.
type Result struct {
	// Phase is "load" or "run".
	Phase string
	// RunTime is the phase's wall-clock duration.
	RunTime time.Duration
	// Operations is the number of completed workload operations
	// (committed or aborted).
	Operations int64
	// Aborts is the number of aborted transactions.
	Aborts int64
	// Throughput is Operations / RunTime in ops/sec.
	Throughput float64
	// Registry holds every measurement series of the phase.
	Registry *measurement.Registry
	// Validation is the Tier 6 outcome (nil when skipped).
	Validation *workload.ValidationResult
	// Timeline holds per-interval throughput when enabled.
	Timeline *measurement.Timeline
}

// Client executes phases of one workload against one binding. All
// phases share one measurement registry, so workload-level series
// (READ-MODIFY-WRITE) and client-level series land together.
type Client struct {
	cfg     Config
	w       workload.Workload
	d       db.DB // the raw binding
	reg     *measurement.Registry
	mwNames []string // validated middleware stack, outermost first
	// histNative is true when the binding records history itself
	// (history.CapableDB); threads then skip the capture middleware so
	// transactions are never recorded twice.
	histNative bool
}

// New builds a client over an already-initialized workload and
// binding; reg may be nil, in which case a fresh registry is created.
// Open builds both from properties.
func New(cfg Config, w workload.Workload, d db.DB, reg *measurement.Registry) (*Client, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("client: thread count %d", cfg.Threads)
	}
	if w == nil || d == nil {
		return nil, fmt.Errorf("client: nil workload or db")
	}
	if reg == nil {
		reg = measurement.NewRegistry(cfg.HistogramBuckets)
	}
	if cfg.Middleware == "" {
		cfg.Middleware = "metered"
	}
	mwNames, err := db.ParseMiddlewares(cfg.Middleware)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Client{cfg: cfg, w: w, d: d, reg: reg, mwNames: mwNames}
	if cfg.History != nil {
		c.SetHistory(cfg.History)
	}
	return c, nil
}

// SetHistory installs a history sink after construction (before the
// first phase): capable bindings record natively, everything else is
// captured by the per-thread middleware.
func (c *Client) SetHistory(sink history.TxnSink) {
	c.cfg.History = sink
	if capable, ok := c.d.(history.CapableDB); ok {
		capable.SetHistorySink(sink)
		c.histNative = true
	}
}

// Registry returns the client's shared measurement registry.
func (c *Client) Registry() *measurement.Registry { return c.reg }

// DB returns the raw (unmetered) binding.
func (c *Client) DB() db.DB { return c.d }

// Open instantiates the workload and the binding that cfg.Props names
// ("workload", "db"), initializes both, and returns a ready client.
func Open(cfg Config) (*Client, error) {
	p := cfg.Props
	if p == nil {
		p = properties.New()
	}
	reg := measurement.NewRegistry(cfg.HistogramBuckets)
	w, err := workload.New(p.GetString("workload", "core"))
	if err != nil {
		return nil, err
	}
	if err := w.Init(p, reg); err != nil {
		return nil, err
	}
	d, err := db.Open(p.GetString("db", "memory"))
	if err != nil {
		return nil, err
	}
	if err := d.Init(p); err != nil {
		return nil, err
	}
	return New(cfg, w, d, reg)
}

// Load executes the load phase: RecordCount inserts spread over the
// configured threads, each wrapped in a transaction.
func (c *Client) Load(ctx context.Context) (*Result, error) {
	return c.phase(ctx, "load", c.cfg.RecordCount)
}

// Run executes the transaction phase: OperationCount workload
// operations spread over the configured threads.
func (c *Client) Run(ctx context.Context) (*Result, error) {
	return c.phase(ctx, "run", c.cfg.OperationCount)
}

func (c *Client) phase(ctx context.Context, name string, totalOps int64) (*Result, error) {
	if totalOps <= 0 {
		return nil, fmt.Errorf("client: %s phase with %d operations", name, totalOps)
	}

	if c.cfg.MaxExecutionTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.MaxExecutionTime)
		defer cancel()
	}

	var completed, aborts atomic.Int64
	var timeline *measurement.Timeline
	if c.cfg.TimelineInterval > 0 {
		timeline = measurement.NewTimeline(c.cfg.TimelineInterval)
	}
	start := time.Now()

	stopStatus := c.startStatusReporter(name, start)

	var wg sync.WaitGroup
	errs := make([]error, c.cfg.Threads)
	perThread := totalOps / int64(c.cfg.Threads)
	extra := totalOps % int64(c.cfg.Threads)
	for th := 0; th < c.cfg.Threads; th++ {
		ops := perThread
		if int64(th) < extra {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(th int, ops int64) {
			defer wg.Done()
			errs[th] = c.threadLoop(ctx, name, th, ops, timeline, &completed, &aborts)
		}(th, ops)
	}
	wg.Wait()
	if stopStatus != nil {
		stopStatus()
	}
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{
		Phase:      name,
		RunTime:    elapsed,
		Operations: completed.Load(),
		Aborts:     aborts.Load(),
		Registry:   c.reg,
		Timeline:   timeline,
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Operations) / elapsed.Seconds()
	}
	if !c.cfg.SkipValidation {
		// Tier 6: validate against the raw binding so the validation
		// scan does not pollute the phase's measurements.
		v, err := c.w.Validate(ctx, c.d)
		if err != nil {
			return nil, fmt.Errorf("client: validation stage: %w", err)
		}
		res.Validation = v
	}
	return res, nil
}

// threadLoop is one client thread: per-op transaction wrapping with
// Tier 5 measurement and optional throttling. Each thread builds its
// own middleware chain over the shared binding, so the metered layer
// writes to thread-private measurement shards — no cross-thread lock
// or shared cache line is touched on the per-operation path.
func (c *Client) threadLoop(ctx context.Context, phase string, th int, ops int64, timeline *measurement.Timeline, completed, aborts *atomic.Int64) error {
	ts, err := c.w.InitThread(th, c.cfg.Threads)
	if err != nil {
		return err
	}
	rec := c.reg.Recorder()
	mws, err := db.BuildMiddlewares(c.mwNames, db.MiddlewareEnv{Recorder: rec})
	if err != nil {
		return fmt.Errorf("client: thread %d middleware stack: %w", th, err)
	}
	if c.cfg.History != nil && !c.histNative {
		// Innermost, directly over the binding, so the layers above
		// do not distort the recorded history.
		mws = append(mws, history.Middleware(c.cfg.History, th))
	}
	chain := db.Transactional(db.Chain(c.d, mws...))
	// Whole-transaction (TX-<TYPE>) series handles, resolved once per
	// op type; the map is thread-private, so lookups stay lock-free.
	txSeries := make(map[workload.OpType]*measurement.SeriesRecorder, 8)
	measureTx := func(op workload.OpType, d time.Duration, code int) {
		h := txSeries[op]
		if h == nil {
			h = rec.Series(workload.TxSeries(op))
			txSeries[op] = h
		}
		h.Measure(d, code)
	}
	var interval time.Duration
	if c.cfg.TargetOpsPerSec > 0 {
		perThread := c.cfg.TargetOpsPerSec / float64(c.cfg.Threads)
		interval = time.Duration(float64(time.Second) / perThread)
	}
	next := time.Now()
	// The phase deadline stops the loop BETWEEN operations; each
	// operation runs on a non-cancelling context so it completes its
	// read-modify-write sequence. Cutting an operation in half would
	// manufacture anomalies the store never produced (e.g. a CEW
	// transfer that debited but never credited) — the paper's runs
	// are bounded by operation count and never stop mid-operation.
	opCtx := context.WithoutCancel(ctx)
	if c.cfg.History != nil {
		// Tag the thread's operations with their session id so the
		// history feeder (manager or middleware) attributes them.
		opCtx = db.WithSession(opCtx, th)
	}
	for i := int64(0); i < ops; i++ {
		if ctx.Err() != nil {
			return nil // deadline reached: stop cleanly
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return nil
				}
			}
			next = next.Add(interval)
		}

		txTimer := time.Now()
		tctx, err := chain.Start(opCtx)
		if err != nil {
			// A failed Start is still a transaction attempt the run
			// made: record it under the TX series with the error's
			// return code instead of dropping the sample.
			op := workload.OpUnstarted
			if phase == "load" {
				op = workload.OpInsert
			}
			measureTx(op, time.Since(txTimer), db.ReturnCode(err))
			if timeline != nil {
				timeline.Record()
			}
			aborts.Add(1)
			completed.Add(1)
			continue
		}
		view := db.TxView(chain, tctx)
		var op workload.OpType
		if phase == "load" {
			op = workload.OpInsert
			err = c.w.Load(opCtx, view, ts)
		} else {
			op, err = c.w.Do(opCtx, view, ts)
		}
		if err == nil {
			err = chain.Commit(opCtx, tctx)
		} else {
			chain.Abort(opCtx, tctx)
			err = fmt.Errorf("%w: workload error: %v", db.ErrAborted, err)
		}
		if err != nil {
			aborts.Add(1)
			// Aborting discards the transaction's buffered writes; let
			// the workload discard any client-side state mirroring
			// them (CEW's escrow pot).
			if aa, ok := c.w.(workload.AbortAware); ok {
				aa.OnAbort(ts)
			}
		}
		measureTx(op, time.Since(txTimer), db.ReturnCode(err))
		if timeline != nil {
			timeline.Record()
		}
		completed.Add(1)
	}
	return nil
}

// txOperations sums the whole-transaction (TX-*) series from merged
// shard snapshots — the number of workload operations completed so
// far, readable mid-run without touching any per-thread state.
func (c *Client) txOperations() int64 {
	var total int64
	for _, n := range c.reg.Names() {
		if strings.HasPrefix(n, "TX-") {
			total += c.reg.Snapshot(n).Operations
		}
	}
	return total
}

// startStatusReporter launches the interim-throughput printer and
// returns a function that stops it and waits for it to finish (so the
// Status writer is quiescent when the phase returns). The reporter
// reads merged measurement snapshots — the write side is per-thread
// shards, so observing progress never interferes with the hot path.
func (c *Client) startStatusReporter(phase string, start time.Time) func() {
	if c.cfg.StatusInterval <= 0 || c.cfg.Status == nil {
		return nil
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	base := c.txOperations() // registry may carry earlier phases
	go func() {
		defer close(finished)
		tick := time.NewTicker(c.cfg.StatusInterval)
		defer tick.Stop()
		prev := base
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := c.txOperations()
				fmt.Fprintf(c.cfg.Status, "[%s] %s: %d operations; %.1f current ops/sec\n",
					phase, time.Since(start).Round(time.Second), cur-base,
					float64(cur-prev)/c.cfg.StatusInterval.Seconds())
				prev = cur
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
