package client

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

func cewProps(over map[string]string) *properties.Properties {
	base := map[string]string{
		"workload":                  "closedeconomy",
		"db":                        "memory",
		"recordcount":               "200",
		"operationcount":            "2000",
		"totalcash":                 "20000",
		"threadcount":               "4",
		"readproportion":            "0.9",
		"readmodifywriteproportion": "0.1",
		"requestdistribution":       "zipfian",
	}
	for k, v := range over {
		base[k] = v
	}
	return properties.FromMap(base)
}

func TestLoadAndRunEndToEnd(t *testing.T) {
	ctx := context.Background()
	c, err := Open(BuildConfig(cewProps(nil)))
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	loadRes, err := c.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if loadRes.Operations != 200 {
		t.Errorf("load operations = %d", loadRes.Operations)
	}
	if loadRes.Validation == nil || !loadRes.Validation.Valid {
		t.Errorf("load validation = %+v", loadRes.Validation)
	}
	if reg.Snapshot(db.SeriesInsert).Operations != 200 {
		t.Errorf("INSERT ops = %d", reg.Snapshot(db.SeriesInsert).Operations)
	}

	runRes, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if runRes.Operations != 2000 {
		t.Errorf("run operations = %d", runRes.Operations)
	}
	if runRes.Throughput <= 0 {
		t.Errorf("throughput = %v", runRes.Throughput)
	}
	// Tier 5 series must all exist.
	for _, s := range []string{"START", "COMMIT", "READ", "TX-READ", "TX-READMODIFYWRITE", "READ-MODIFY-WRITE"} {
		if reg.Snapshot(s).Operations == 0 {
			t.Errorf("series %s empty; have %v", s, reg.Names())
		}
	}
	// Validation ran and operations were counted.
	if runRes.Validation == nil {
		t.Fatal("no validation result")
	}
	if runRes.Validation.Operations != 2000 {
		t.Errorf("validated operations = %d", runRes.Validation.Operations)
	}
}

func TestTransactionalCEWHasZeroAnomalyScore(t *testing.T) {
	// The headline YCSB+T property: with a real transactional binding
	// the CEW invariant holds under concurrency.
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	binding := txn.NewBinding(m)

	p := cewProps(map[string]string{
		"operationcount":            "20000",
		"threadcount":               "16",
		"recordcount":               "500",
		"totalcash":                 "50000",
		"readproportion":            "0.3",
		"updateproportion":          "0.1",
		"insertproportion":          "0.05",
		"deleteproportion":          "0.1",
		"scanproportion":            "0.05",
		"readmodifywriteproportion": "0.4",
	})
	reg := measurement.NewRegistry(0)
	w, err := workload.New("closedeconomy")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(p, reg); err != nil {
		t.Fatal(err)
	}
	c, err := New(BuildConfig(p), w, binding, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Validation == nil || !res.Validation.Valid {
		t.Fatalf("transactional run broke the invariant: %+v", res.Validation)
	}
	if res.Validation.AnomalyScore != 0 {
		t.Errorf("anomaly score = %v, want 0", res.Validation.AnomalyScore)
	}
	// Conflicted transactions abort; aborts are acceptable, anomalies
	// are not.
	t.Logf("transactional CEW: %d ops, %d aborts, score %g",
		res.Operations, res.Aborts, res.Validation.AnomalyScore)
}

func TestThrottling(t *testing.T) {
	ctx := context.Background()
	p := cewProps(map[string]string{
		"operationcount": "100",
		"threadcount":    "2",
		"target":         "200", // 200 ops/sec total → ≥ 500ms
	})
	c, err := Open(BuildConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.RunTime < 400*time.Millisecond {
		t.Errorf("throttled run finished in %v, want ≥ ~500ms", res.RunTime)
	}
	if res.Throughput > 260 {
		t.Errorf("throughput %v exceeds target 200 by too much", res.Throughput)
	}
}

func TestMaxExecutionTime(t *testing.T) {
	ctx := context.Background()
	p := cewProps(map[string]string{
		"operationcount":   "100000000", // effectively unbounded
		"threadcount":      "2",
		"target":           "50",
		"maxexecutiontime": "1",
	})
	c, err := Open(BuildConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("maxexecutiontime not honoured: ran %v", elapsed)
	}
	if res.Operations >= 100000000 {
		t.Error("operation count not cut short")
	}
}

func TestStatusReporter(t *testing.T) {
	ctx := context.Background()
	var status bytes.Buffer
	p := cewProps(map[string]string{"operationcount": "200", "threadcount": "2", "target": "400"})
	cfg := BuildConfig(p)
	cfg.StatusInterval = 100 * time.Millisecond
	cfg.Status = &status

	w, err := workload.New("closedeconomy")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(p, nil); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Open("memory")
	d.Init(p)
	c, err := New(cfg, w, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status.String(), "current ops/sec") {
		t.Errorf("no status lines emitted: %q", status.String())
	}
}

// Middlewares the tests stack by name beside "metered": "testtrace"
// counts every operation it sees per kind (all threads, all phases),
// and "testfault" fails three raw operations in ten with ErrThrottled
// before they reach the binding.
var traced [db.OpAbort + 1]atomic.Int64

func init() {
	db.RegisterMiddleware("testtrace", func(db.MiddlewareEnv) (db.Middleware, error) {
		return db.Intercept(func(ctx context.Context, info db.OpInfo, call func(context.Context) error) error {
			err := call(ctx)
			traced[info.Op].Add(1)
			return err
		}), nil
	})
	db.RegisterMiddleware("testfault", func(db.MiddlewareEnv) (db.Middleware, error) {
		var seq atomic.Uint64
		return db.Intercept(func(ctx context.Context, info db.OpInfo, call func(context.Context) error) error {
			if !info.Op.Demarcation() && seq.Add(1)%10 < 3 {
				return fmt.Errorf("%w: injected fault", db.ErrThrottled)
			}
			return call(ctx)
		}), nil
	})
}

func TestMiddlewareStackEndToEnd(t *testing.T) {
	ctx := context.Background()
	p := cewProps(map[string]string{
		"operationcount": "400",
		"threadcount":    "2",
		"middleware":     "testtrace,metered",
	})
	c, err := Open(BuildConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	for i := range traced {
		traced[i].Store(0)
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Operations != 400 {
		t.Errorf("run operations = %d", res.Operations)
	}
	// The metered layer recorded every series despite the longer stack.
	for _, s := range []string{"START", "COMMIT", "READ", "TX-READ"} {
		if reg.Snapshot(s).Operations == 0 {
			t.Errorf("series %s empty; have %v", s, reg.Names())
		}
	}
	// The trace layer, stacked outside metered, saw the same commits.
	var total int64
	for i := range traced {
		total += traced[i].Load()
	}
	if total == 0 {
		t.Fatal("no operation traced")
	}
	if want := reg.Snapshot(db.SeriesCommit).Operations; total < want {
		t.Errorf("traced total %d < metered COMMIT count %d", total, want)
	} else if traced[db.OpCommit].Load() == 0 {
		t.Error("no COMMIT traced")
	}
}

func TestFaultInjectionDrivesAborts(t *testing.T) {
	ctx := context.Background()
	p := cewProps(map[string]string{
		"operationcount": "300",
		"threadcount":    "2",
		"middleware":     "metered,testfault",
	})
	c, err := Open(BuildConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	// Load without faults (the stack applies to both phases here, so
	// tolerate load aborts; what matters is the run sees failures).
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Error("30% injected faults produced zero aborts")
	}
	if res.Operations != 300 {
		t.Errorf("operations = %d; injected faults must not lose ops", res.Operations)
	}
}

func TestUnknownMiddlewareRejected(t *testing.T) {
	p := cewProps(map[string]string{"middleware": "metered,nosuch"})
	if _, err := Open(BuildConfig(p)); err == nil {
		t.Error("unknown middleware accepted")
	}
	w, _ := workload.New("closedeconomy")
	if err := w.Init(cewProps(nil), nil); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Open("memory")
	if _, err := New(Config{Threads: 1, Middleware: "bogus"}, w, d, nil); err == nil {
		t.Error("New accepted a bogus middleware stack")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Threads: 0}, nil, nil, nil); err == nil {
		t.Error("zero threads accepted")
	}
	w, _ := workload.New("core")
	if _, err := New(Config{Threads: 1}, w, nil, nil); err == nil {
		t.Error("nil db accepted")
	}
	c, err := Open(BuildConfig(properties.FromMap(map[string]string{
		"workload": "core", "db": "memory", "recordcount": "10", "operationcount": "0",
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Error("zero operationcount accepted at Run")
	}
	if _, err := Open(BuildConfig(properties.FromMap(map[string]string{"workload": "missing"}))); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Open(BuildConfig(properties.FromMap(map[string]string{"db": "missing"}))); err == nil {
		t.Error("unknown db accepted")
	}
}

func TestReportFormat(t *testing.T) {
	ctx := context.Background()
	c, err := Open(BuildConfig(cewProps(map[string]string{"operationcount": "300"})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Report(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"[TOTAL CASH], 20000",
		"[COUNTED CASH],",
		"[ACTUAL OPERATIONS], 300",
		"[ANOMALY SCORE],",
		"[OVERALL], RunTime(ms),",
		"[OVERALL], Throughput(ops/sec),",
		"[READ], Operations,",
		"[COMMIT], Operations,",
		"[START], Operations,",
		"[TX-READ], Operations,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadErrorsAbortTransactions(t *testing.T) {
	// Force read errors: run CEW with delete-heavy ops so reads of
	// deleted keys fail; the client must abort and keep going.
	ctx := context.Background()
	p := cewProps(map[string]string{
		"operationcount":            "500",
		"deleteproportion":          "0.6",
		"readproportion":            "0.4",
		"readmodifywriteproportion": "0",
		"requestdistribution":       "uniform",
	})
	c, err := Open(BuildConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Registry()
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborts == 0 {
		t.Error("no aborted transactions despite doomed deletes")
	}
	if reg.Snapshot(db.SeriesAbort).Operations != res.Aborts {
		t.Errorf("ABORT series = %d, aborts = %d",
			reg.Snapshot(db.SeriesAbort).Operations, res.Aborts)
	}
	// Even with failed ops, the invariant holds in a single-threaded
	// sense... but concurrent deletes can race; just assert the
	// validation ran.
	if res.Validation == nil {
		t.Error("validation skipped")
	}
}

func TestSkipValidation(t *testing.T) {
	ctx := context.Background()
	p := cewProps(map[string]string{"operationcount": "50", "threadcount": "1"})
	cfg := BuildConfig(p)
	cfg.SkipValidation = true
	w, _ := workload.New("closedeconomy")
	if err := w.Init(p, nil); err != nil {
		t.Fatal(err)
	}
	d, _ := db.Open("memory")
	d.Init(p)
	c, _ := New(cfg, w, d, nil)
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Validation != nil {
		t.Error("validation ran despite SkipValidation")
	}
}

func TestDeadlineNeverSplitsOperations(t *testing.T) {
	// A time-bounded single-threaded CEW run must end with anomaly
	// score exactly 0: the phase deadline may stop the loop only
	// between operations, never mid-RMW (a half-applied transfer
	// would fabricate an anomaly no store ever produced).
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		p := cewProps(map[string]string{
			"operationcount":            "1000000000",
			"maxexecutiontime":          "1",
			"threadcount":               "1",
			"readproportion":            "0.5",
			"readmodifywriteproportion": "0.5",
		})
		c, err := Open(BuildConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Load(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Validation == nil || res.Validation.AnomalyScore != 0 {
			t.Fatalf("round %d: single-threaded time-bounded run drifted: %+v",
				round, res.Validation)
		}
	}
}
