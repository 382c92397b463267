package db

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// labelled returns a middleware that appends its label to trail once
// per intercepted operation, recording interception order.
func labelled(label string, trail *[]string) Middleware {
	return Intercept(func(ctx context.Context, info OpInfo, call func(context.Context) error) error {
		*trail = append(*trail, label)
		return call(ctx)
	})
}

func TestChainOrder(t *testing.T) {
	ctx := context.Background()
	var trail []string
	d := Chain(NewMemory(), labelled("outer", &trail), labelled("inner", &trail))

	if err := d.Insert(ctx, "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "inner"}
	if fmt.Sprint(trail) != fmt.Sprint(want) {
		t.Errorf("insert trail = %v, want %v", trail, want)
	}

	// Demarcation ops flow through the same declared order.
	trail = nil
	tdb := d.(TransactionalDB)
	tctx, err := tdb.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tdb.Commit(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	if err := tdb.Abort(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	want = []string{"outer", "inner", "outer", "inner", "outer", "inner"}
	if fmt.Sprint(trail) != fmt.Sprint(want) {
		t.Errorf("demarcation trail = %v, want %v", trail, want)
	}
}

func TestChainEmptyStillTransactional(t *testing.T) {
	d := Chain(NewMemory())
	tdb := Transactional(d)
	tctx, err := tdb.Start(context.Background())
	if err != nil || tctx == nil {
		t.Fatalf("Start = %v, %v", tctx, err)
	}
	if err := tdb.Commit(context.Background(), tctx); err != nil {
		t.Errorf("Commit = %v", err)
	}
	if v := TxView(d, tctx); v == nil {
		t.Error("TxView nil")
	}
}

// observerFunc adapts a function to OpObserver.
type observerFunc func(info OpInfo, latency time.Duration, err error)

func (f observerFunc) ObserveOp(info OpInfo, latency time.Duration, err error) {
	f(info, latency, err)
}

func TestTracedOutsideMeteredSeesSameOps(t *testing.T) {
	ctx := context.Background()
	reg := measurement.NewRegistry(0)
	seen := map[string]int64{}
	obs := observerFunc(func(info OpInfo, _ time.Duration, _ error) {
		seen[info.Op.Series()]++
	})
	d := Chain(NewMemory(), Traced(obs), Metered(reg.Recorder()))

	if err := d.Insert(ctx, "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(ctx, "t", "k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Read(ctx, "t", "missing", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want not-found, got %v", err)
	}
	tdb := d.(TransactionalDB)
	tctx, _ := tdb.Start(ctx)
	if err := tdb.Commit(ctx, tctx); err != nil {
		t.Fatal(err)
	}

	// The trace layer sits outside Metered: every series the metered
	// layer timed must have an identical trace count.
	for _, name := range []string{SeriesInsert, SeriesRead, SeriesStart, SeriesCommit} {
		if got, want := seen[name], reg.Snapshot(name).Operations; got != want {
			t.Errorf("series %s: traced %d, metered %d", name, got, want)
		}
	}
	if seen[SeriesRead] != 2 {
		t.Errorf("traced READ = %d, want 2 (failed ops observed too)", seen[SeriesRead])
	}
}

// flaky fails key operations with err until remaining hits zero.
type flaky struct {
	*Memory
	err       error
	remaining int
	calls     int
}

func (f *flaky) Read(ctx context.Context, table, key string, fields []string) (Record, error) {
	f.calls++
	if f.remaining > 0 {
		f.remaining--
		return nil, f.err
	}
	return f.Memory.Read(ctx, table, key, fields)
}

func (f *flaky) Commit(ctx context.Context, tctx *TransactionContext) error {
	f.calls++
	if f.remaining > 0 {
		f.remaining--
		return f.err
	}
	return nil
}

func (f *flaky) Start(ctx context.Context) (*TransactionContext, error) {
	return &TransactionContext{}, nil
}

func (f *flaky) Abort(ctx context.Context, tctx *TransactionContext) error { return nil }

func TestRetryThrottled(t *testing.T) {
	ctx := context.Background()
	f := &flaky{Memory: NewMemory(), err: ErrThrottled, remaining: 2}
	if err := f.Memory.Insert(ctx, "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	d := Chain(f, retry(3, time.Microsecond))
	if _, err := d.Read(ctx, "t", "k", nil); err != nil {
		t.Fatalf("read after retries = %v", err)
	}
	if f.calls != 3 {
		t.Errorf("calls = %d, want 3 (two throttled + one success)", f.calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	ctx := context.Background()
	f := &flaky{Memory: NewMemory(), err: ErrThrottled, remaining: 100}
	d := Chain(f, retry(4, time.Microsecond))
	if _, err := d.Read(ctx, "t", "k", nil); !errors.Is(err, ErrThrottled) {
		t.Fatalf("want throttled, got %v", err)
	}
	if f.calls != 4 {
		t.Errorf("calls = %d, want 4", f.calls)
	}
}

// Conflicts are never retried, neither on a raw operation nor on a
// commit.
func TestRetryNeverRetriesCommitConflicts(t *testing.T) {
	ctx := context.Background()
	f := &flaky{Memory: NewMemory(), err: ErrConflict, remaining: 100}
	d := Chain(f, retry(5, time.Microsecond))
	if _, err := d.Read(ctx, "t", "k", nil); !errors.Is(err, ErrConflict) {
		t.Fatalf("read: want conflict, got %v", err)
	}
	if f.calls != 1 {
		t.Errorf("raw conflict retried: calls = %d, want 1", f.calls)
	}
	f.calls = 0
	tdb := d.(TransactionalDB)
	tctx, _ := tdb.Start(ctx)
	if err := tdb.Commit(ctx, tctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("want conflict, got %v", err)
	}
	if f.calls != 1 {
		t.Errorf("commit conflict retried: calls = %d, want 1", f.calls)
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &flaky{Memory: NewMemory(), err: ErrThrottled, remaining: 100}
	d := Chain(f, retry(1000, time.Hour))
	start := time.Now()
	if _, err := d.Read(ctx, "t", "k", nil); !errors.Is(err, ErrThrottled) {
		t.Fatalf("want throttled, got %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("retry did not bail on cancelled context")
	}
	if f.calls != 1 {
		t.Errorf("calls = %d, want 1", f.calls)
	}
}

func TestFaultInjectDeterministicExtremes(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	if err := mem.Insert(ctx, "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}

	always := Chain(mem, FaultInject(1))
	for i := 0; i < 50; i++ {
		if _, err := always.Read(ctx, "t", "k", nil); !errors.Is(err, ErrThrottled) {
			t.Fatalf("probability 1: read %d = %v", i, err)
		}
	}
	// Demarcation is spared even at probability 1.
	if _, err := always.(TransactionalDB).Start(ctx); err != nil {
		t.Errorf("Start injected: %v", err)
	}

	never := Chain(mem, FaultInject(0))
	for i := 0; i < 50; i++ {
		if _, err := never.Read(ctx, "t", "k", nil); err != nil {
			t.Fatalf("probability 0: read %d = %v", i, err)
		}
	}
}

func TestFaultInjectApproximatesProbability(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	if err := mem.Insert(ctx, "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	d := Chain(mem, FaultInject(0.25))
	const n = 4000
	failed := 0
	for i := 0; i < n; i++ {
		if _, err := d.Read(ctx, "t", "k", nil); err != nil {
			if !errors.Is(err, ErrThrottled) {
				t.Fatalf("unexpected injected error %v", err)
			}
			failed++
		}
	}
	if failed < n/5 || failed > n/3 {
		t.Errorf("injected %d/%d faults, want ≈ %d", failed, n, n/4)
	}
}

func TestParseAndBuildMiddlewares(t *testing.T) {
	names, err := ParseMiddlewares(" metered, trace ,retry,,faultinject ")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"metered", "trace", "retry", "faultinject"}) {
		t.Errorf("names = %v", names)
	}
	if _, err := ParseMiddlewares("metered,nosuch"); err == nil {
		t.Error("unknown middleware accepted")
	}

	reg := measurement.NewRegistry(0)
	env := MiddlewareEnv{
		Props:    properties.New(),
		Recorder: reg.Recorder(),
		Observer: observerFunc(func(OpInfo, time.Duration, error) {}),
	}
	mws, err := BuildMiddlewares(names, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(mws) != len(names) {
		t.Fatalf("built %d middlewares, want %d", len(mws), len(names))
	}
	d := Chain(NewMemory(), mws...)
	if err := d.Insert(context.Background(), "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot(SeriesInsert).Operations; got != 1 {
		t.Errorf("INSERT ops through built stack = %d", got)
	}

	// Missing environment dependencies are build-time errors.
	if _, err := BuildMiddlewares([]string{"metered"}, MiddlewareEnv{}); err == nil {
		t.Error("metered built without a recorder")
	}
	if _, err := BuildMiddlewares([]string{"trace"}, MiddlewareEnv{}); err == nil {
		t.Error("trace built without an observer")
	}
	p := properties.New()
	p.Set("faultinject.probability", "1.5")
	if _, err := BuildMiddlewares([]string{"faultinject"}, MiddlewareEnv{Props: p}); err == nil {
		t.Error("faultinject accepted probability 1.5")
	}
}

func TestMiddlewareNamesSorted(t *testing.T) {
	names := MiddlewareNames()
	for _, want := range []string{"faultinject", "metered", "retry", "trace"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("MiddlewareNames() = %v, missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("MiddlewareNames() not sorted: %v", names)
		}
	}
}
