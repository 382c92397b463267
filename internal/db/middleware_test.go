package db

import (
	"context"
	"errors"
	"fmt"
	"testing"

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

// Middlewares the tests stack by name beside "metered".
func init() {
	RegisterMiddleware("testnoop", func(MiddlewareEnv) (Middleware, error) {
		return Intercept(func(ctx context.Context, _ OpInfo, call func(context.Context) error) error {
			return call(ctx)
		}), nil
	})
	RegisterMiddleware("testbroken", func(MiddlewareEnv) (Middleware, error) {
		return nil, errors.New("testbroken never builds")
	})
}

func TestTracedOutsideMeteredSeesSameOps(t *testing.T) {
	ctx := context.Background()
	reg := measurement.NewRegistry(0)
	seen := map[string]int64{}
	trace := Intercept(func(ctx context.Context, info OpInfo, call func(context.Context) error) error {
		err := call(ctx)
		seen[info.Op.Series()]++
		return err
	})
	d := Chain(NewMemory(), trace, Metered(reg.Recorder()))

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

func TestParseAndBuildMiddlewares(t *testing.T) {
	names, err := ParseMiddlewares(" testnoop, metered ,,testnoop ")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"testnoop", "metered", "testnoop"}) {
		t.Errorf("names = %v", names)
	}
	if _, err := ParseMiddlewares("metered,nosuch"); err == nil {
		t.Error("unknown middleware accepted")
	}

	reg := measurement.NewRegistry(0)
	mws, err := BuildMiddlewares(names, MiddlewareEnv{Recorder: reg.Recorder()})
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

	// Missing environment dependencies and failing factories are
	// build-time errors.
	if _, err := BuildMiddlewares([]string{"metered"}, MiddlewareEnv{}); err == nil {
		t.Error("metered built without a recorder")
	}
	if _, err := BuildMiddlewares([]string{"testnoop", "testbroken"}, MiddlewareEnv{}); err == nil {
		t.Error("a failing factory built")
	}
}

func TestMiddlewareNamesSorted(t *testing.T) {
	names := MiddlewareNames()
	for _, want := range []string{"metered", "testbroken", "testnoop"} {
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

// TestInterceptRoutesEveryOp drives every DB method through one
// Intercept layer over the memory binding: each of the eight
// operations reaches the interceptor once with its Op and key, while
// Init, Cleanup and Unwrap reach the binding untouched.
func TestInterceptRoutesEveryOp(t *testing.T) {
	ctx := context.Background()
	var seen []OpInfo
	record := func(ctx context.Context, info OpInfo, call func(context.Context) error) error {
		seen = append(seen, info)
		return call(ctx)
	}
	mem := NewMemory()
	d := Intercept(record)(mem)
	if got := d.(*intercepted).Unwrap(); got != mem {
		t.Fatalf("Unwrap = %v, want the memory binding", got)
	}
	if err := d.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	tdb := d.(TransactionalDB)
	for _, c := range []struct {
		op  Op
		key string
		run func() error
	}{
		{OpInsert, "k", func() error { return d.Insert(ctx, "t", "k", Record{"f": []byte("v")}) }},
		{OpUpdate, "k", func() error { return d.Update(ctx, "t", "k", Record{"f": []byte("w")}) }},
		{OpRead, "k", func() error {
			rec, err := d.Read(ctx, "t", "k", nil)
			if err == nil && string(rec["f"]) != "w" {
				return fmt.Errorf("read f = %q, want \"w\"", rec["f"])
			}
			return err
		}},
		{OpScan, "", func() error {
			kvs, err := d.Scan(ctx, "t", "", 10, nil)
			if err == nil && len(kvs) != 1 {
				return fmt.Errorf("scan saw %d records, want 1", len(kvs))
			}
			return err
		}},
		{OpDelete, "k", func() error { return d.Delete(ctx, "t", "k") }},
		{OpStart, "", func() error { _, err := tdb.Start(ctx); return err }},
		{OpCommit, "", func() error { return tdb.Commit(ctx, &TransactionContext{}) }},
		{OpAbort, "", func() error { return tdb.Abort(ctx, &TransactionContext{}) }},
	} {
		t.Run(c.op.String(), func(t *testing.T) {
			seen = nil
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if len(seen) != 1 || seen[0].Op != c.op || seen[0].Key != c.key {
				t.Errorf("interceptor saw %+v, want one %v of key %q", seen, c.op, c.key)
			}
			if c.op.String() != c.op.Series() {
				t.Errorf("String() = %q, Series() = %q", c.op.String(), c.op.Series())
			}
			if want := c.op >= OpStart; c.op.Demarcation() != want {
				t.Errorf("Demarcation() = %v, want %v", c.op.Demarcation(), want)
			}
		})
	}
	if got := Op(numOps).String(); got != fmt.Sprintf("OP(%d)", numOps) {
		t.Errorf("out-of-range op String() = %q", got)
	}

	// A binding without views: WithTx returns the wrapper itself.
	if v := d.(ContextualDB).WithTx(&TransactionContext{}); v != d {
		t.Errorf("WithTx over a binding without views = %v, want the wrapper", v)
	}
	// Over a layer with views, the view flows through the same
	// interceptor.
	outer := Intercept(record)(d)
	view := outer.(ContextualDB).WithTx(&TransactionContext{})
	seen = nil
	if err := view.Insert(ctx, "t", "v", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("an insert on the view passed %d interceptors, want 2", len(seen))
	}
	// A plain YCSB binding adapted by Transactional forwards WithTx.
	plain := struct{ DB }{mem}
	if v := Transactional(plain).(ContextualDB).WithTx(&TransactionContext{}); v != DB(plain) {
		t.Errorf("Transactional(plain).WithTx = %v, want the binding", v)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
}
