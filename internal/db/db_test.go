package db

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

func TestReturnCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{ErrNotFound, 1},
		{fmt.Errorf("wrapped: %w", ErrNotFound), 1},
		{ErrConflict, 2},
		{ErrAborted, 3},
		{ErrThrottled, 4},
		{ErrNotSupported, 5},
		{context.Canceled, 6},
		{context.DeadlineExceeded, 6},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), 6},
		{errors.New("other"), -1},
		{fmt.Errorf("store: %w: %w", ErrBelowHorizon, ErrNotFound), -1}, // not a miss
	}
	for _, c := range cases {
		if got := ReturnCode(c.err); got != c.want {
			t.Errorf("ReturnCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	Register("test-binding", func() (DB, error) { return NewMemory(), nil })
	// The registry is the process's: take the binding out again, so the
	// test can run twice in one process (go test -count=2).
	t.Cleanup(func() {
		registryMu.Lock()
		delete(registry, "test-binding")
		registryMu.Unlock()
	})
	d, err := Open("test-binding")
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("nil DB")
	}
	if _, err := Open("missing-binding"); err == nil {
		t.Error("expected error for unknown binding")
	}
	found := false
	for _, n := range Bindings() {
		if n == "test-binding" {
			found = true
		}
	}
	if !found {
		t.Errorf("Bindings() = %v, missing test-binding", Bindings())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on duplicate registration")
			}
		}()
		Register("test-binding", func() (DB, error) { return nil, nil })
	}()
}

func TestMemoryCRUD(t *testing.T) {
	ctx := context.Background()
	m := NewMemory()
	if err := m.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	rec := Record{"field0": []byte("hello")}
	if err := m.Insert(ctx, "t", "k1", rec); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(ctx, "t", "k1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got["field0"]) != "hello" {
		t.Errorf("Read = %v", got)
	}
	// Mutating the returned record must not affect the store.
	got["field0"][0] = 'X'
	got2, _ := m.Read(ctx, "t", "k1", nil)
	if string(got2["field0"]) != "hello" {
		t.Error("Read returned aliased storage")
	}
	if err := m.Update(ctx, "t", "k1", Record{"field0": []byte("bye"), "f2": []byte("new")}); err != nil {
		t.Fatal(err)
	}
	got3, _ := m.Read(ctx, "t", "k1", []string{"f2"})
	if len(got3) != 1 || string(got3["f2"]) != "new" {
		t.Errorf("field-filtered read = %v", got3)
	}
	if err := m.Delete(ctx, "t", "k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(ctx, "t", "k1", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("Read after delete = %v", err)
	}
	if err := m.Update(ctx, "t", "missing", rec); !errors.Is(err, ErrNotFound) {
		t.Errorf("Update missing = %v", err)
	}
	if err := m.Delete(ctx, "t", "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete missing = %v", err)
	}
	if err := m.Cleanup(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryScan(t *testing.T) {
	ctx := context.Background()
	m := NewMemory()
	for _, k := range []string{"b", "a", "d", "c"} {
		if err := m.Insert(ctx, "t", k, Record{"f": []byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := m.Scan(ctx, "t", "b", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != "b" || kvs[1].Key != "c" {
		t.Errorf("Scan = %+v", kvs)
	}
	// Scan past the end returns what exists.
	kvs, err = m.Scan(ctx, "t", "c", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Errorf("tail scan = %+v", kvs)
	}
	// Scan from beyond all keys returns empty, not an error.
	kvs, err = m.Scan(ctx, "t", "zzz", 10, nil)
	if err != nil || len(kvs) != 0 {
		t.Errorf("empty scan = %v, %v", kvs, err)
	}
}

func TestMemoryConcurrent(t *testing.T) {
	ctx := context.Background()
	m := NewMemory()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d-%d", w, i)
				if err := m.Insert(ctx, "t", key, Record{"f": []byte("v")}); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Read(ctx, "t", key, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len("t") != 8*200 {
		t.Errorf("Len = %d", m.Len("t"))
	}
}

// TestMemoryConcurrentReadsOfMissingTable reads a table nobody wrote
// from several goroutines at once (a transaction phase run without a
// load phase does): the readers share the read lock, so none of them
// may create the table. Run under -race.
func TestMemoryConcurrentReadsOfMissingTable(t *testing.T) {
	ctx := context.Background()
	m := NewMemory()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			table := fmt.Sprintf("t%d", w%2)
			for i := 0; i < 100; i++ {
				if _, err := m.Read(ctx, table, "k", nil); !errors.Is(err, ErrNotFound) {
					t.Errorf("Read of a missing table = %v, want ErrNotFound", err)
					return
				}
				if kvs, err := m.Scan(ctx, table, "", 10, nil); err != nil || len(kvs) != 0 {
					t.Errorf("Scan of a missing table = %v, %v", kvs, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len("t0") != 0 {
		t.Errorf("Len = %d", m.Len("t0"))
	}
}

func TestMeteredRecordsSeries(t *testing.T) {
	ctx := context.Background()
	reg := measurement.NewRegistry(0)
	md := NewMetered(NewMemory(), reg).(TransactionalDB)
	if err := md.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	tctx, err := md.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.Insert(ctx, "t", "k", Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := md.Read(ctx, "t", "k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := md.Read(ctx, "t", "missing", nil); err == nil {
		t.Fatal("expected not-found")
	}
	if err := md.Update(ctx, "t", "k", Record{"f": []byte("w")}); err != nil {
		t.Fatal(err)
	}
	if _, err := md.Scan(ctx, "t", "k", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := md.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := md.Commit(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	if err := md.Abort(ctx, tctx); err != nil {
		t.Fatal(err)
	}

	wantOps := map[string]int64{
		SeriesStart:  1,
		SeriesInsert: 1,
		SeriesRead:   2,
		SeriesUpdate: 1,
		SeriesScan:   1,
		SeriesDelete: 1,
		SeriesCommit: 1,
		SeriesAbort:  1,
	}
	for name, want := range wantOps {
		if got := reg.Snapshot(name).Operations; got != want {
			t.Errorf("series %s ops = %d, want %d", name, got, want)
		}
	}
	// The failed read must be recorded with return code 1.
	if got := reg.Snapshot(SeriesRead).Returns[1]; got != 1 {
		t.Errorf("READ Return=1 count = %d", got)
	}
	if got := reg.Snapshot(SeriesRead).Returns[0]; got != 1 {
		t.Errorf("READ Return=0 count = %d", got)
	}
	if inner := md.(interface{ Unwrap() DB }).Unwrap(); inner == nil {
		t.Error("Unwrap() nil")
	}
	if err := md.Cleanup(); err != nil {
		t.Fatal(err)
	}
}

func TestMeteredWithTxOnPlainBinding(t *testing.T) {
	reg := measurement.NewRegistry(0)
	md := NewMetered(NewMemory(), reg)
	tctx, _ := md.(TransactionalDB).Start(context.Background())
	view := md.(ContextualDB).WithTx(tctx)
	if view != md {
		t.Error("WithTx on a non-contextual binding should return the metered DB itself")
	}
}

// noopDB is a transactional binding that does nothing and allocates
// nothing: what Metered costs over it is all Metered's.
type noopDB struct {
	NoTransactions
	tctx TransactionContext
}

func (*noopDB) Init(*properties.Properties) error { return nil }
func (*noopDB) Cleanup() error                    { return nil }
func (*noopDB) Read(context.Context, string, string, []string) (Record, error) {
	return nil, nil
}
func (*noopDB) Scan(context.Context, string, string, int, []string) ([]KV, error) {
	return nil, nil
}
func (*noopDB) Update(context.Context, string, string, Record) error { return nil }
func (*noopDB) Insert(context.Context, string, string, Record) error { return nil }
func (*noopDB) Delete(context.Context, string, string) error         { return nil }
func (d *noopDB) Start(context.Context) (*TransactionContext, error) {
	return &d.tctx, nil
}

// TestMeteredAddsNoAllocs: Metered times a call and records it in the
// thread's shards without allocating — Read, Update, Start and Commit
// over a binding that allocates nothing allocate nothing through it.
func TestMeteredAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	ctx := context.Background()
	base := &noopDB{}
	md := Chain(base, Metered(measurement.NewRegistry(0).Recorder())).(TransactionalDB)
	rec := Record{"field0": []byte("1")}
	for name, op := range map[string]func(){
		"Read":   func() { md.Read(ctx, "t", "k", nil) },
		"Update": func() { md.Update(ctx, "t", "k", rec) },
		"Start":  func() { md.Start(ctx) },
		"Commit": func() { md.Commit(ctx, &base.tctx) },
	} {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("metered %s allocates %v objects per call, want 0", name, n)
		}
	}
}

func TestNoTransactions(t *testing.T) {
	ctx := context.Background()
	var nt NoTransactions
	tctx, err := nt.Start(ctx)
	if err != nil || tctx == nil {
		t.Fatalf("Start = %v, %v", tctx, err)
	}
	if err := nt.Commit(ctx, tctx); err != nil {
		t.Errorf("Commit = %v", err)
	}
	if err := nt.Abort(ctx, tctx); err != nil {
		t.Errorf("Abort = %v", err)
	}
}

// A transaction that could not be had fails every call with its error,
// Write included, which no view reaches: Update reads first.
func TestFailedTxnFailsEveryCall(t *testing.T) {
	ctx := context.Background()
	f := failedTxn{ErrAborted}
	_, rerr := f.Read(ctx, "t", "k")
	_, serr := f.Scan(ctx, "t", "", 1)
	for i, err := range []error{rerr, serr, f.Write("t", "k", nil), f.Insert("t", "k", nil),
		f.Delete("t", "k"), f.Commit(ctx), f.Abort(ctx)} {
		if err != ErrAborted {
			t.Errorf("call %d = %v, want the transaction's error", i, err)
		}
	}
}
