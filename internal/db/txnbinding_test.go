package db_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/oracle"
	"ycsbt/internal/percolator"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
)

// txnLibrary is one transaction library under the conformance table.
type txnLibrary struct {
	name string
	// bind returns the library's binding over s.
	bind func(t *testing.T, s txn.Store) db.TransactionalDB
	// conflict is the library's sentinel for a lost race.
	conflict error
}

var txnLibraries = []txnLibrary{
	{"txnkv", func(t *testing.T, s txn.Store) db.TransactionalDB {
		m, err := txn.NewManager(txn.Options{}, s)
		if err != nil {
			t.Fatal(err)
		}
		return txn.NewBinding(m)
	}, txn.ErrConflict},
	{"percolator", func(t *testing.T, s txn.Store) db.TransactionalDB {
		m, err := percolator.NewManager(percolator.Options{}, s, oracle.NewLocal())
		if err != nil {
			t.Fatal(err)
		}
		return percolator.NewBinding(m)
	}, percolator.ErrConflict},
}

// hookStore runs hook once, after the first Get that follows arming it.
type hookStore struct {
	txn.Store
	armed atomic.Bool
	hook  func()
}

func (h *hookStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	rec, err := h.Store.Get(ctx, table, key)
	if h.armed.CompareAndSwap(true, false) {
		h.hook()
	}
	return rec, err
}

// TestTxnBindingConformance holds both transaction libraries' bindings
// to the one db surface they share.
func TestTxnBindingConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, lib txnLibrary, b db.TransactionalDB, hs *hookStore)
	}{
		{"auto-commit CRUD", testAutoCommitCRUD},
		{"commit is visible", testCommitVisible},
		{"abort leaves nothing", testAbortLeavesNothing},
		{"conflicting commit aborts", testConflictAborts},
		{"auto-commit update retries a conflict", testAutoCommitRetries},
		{"a context it did not start fails every call", testForeignContext},
	}
	for _, lib := range txnLibraries {
		for _, c := range cases {
			t.Run(lib.name+"/"+c.name, func(t *testing.T) {
				inner := kvstore.OpenMemory()
				t.Cleanup(func() { inner.Close() })
				hs := &hookStore{Store: txn.NewLocalStore("local", inner)}
				c.run(t, lib, lib.bind(t, hs), hs)
			})
		}
	}
}

func readField(t *testing.T, d db.DB, key, field string) string {
	t.Helper()
	rec, err := d.Read(context.Background(), "t", key, nil)
	if err != nil {
		t.Fatalf("Read %s = %v", key, err)
	}
	return string(rec[field])
}

func testAutoCommitCRUD(t *testing.T, _ txnLibrary, b db.TransactionalDB, _ *hookStore) {
	ctx := context.Background()
	if err := b.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(ctx, "t", "k", db.Record{"f": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if got := readField(t, b, "k", "f"); got != "1" {
		t.Fatalf("Read = %q", got)
	}
	if err := b.Update(ctx, "t", "k", db.Record{"g": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	if f, g := readField(t, b, "k", "f"), readField(t, b, "k", "g"); f != "1" || g != "2" {
		t.Errorf("merged = f:%q g:%q", f, g)
	}
	if rec, err := b.Read(ctx, "t", "k", []string{"g"}); err != nil || len(rec) != 1 || string(rec["g"]) != "2" {
		t.Errorf("projection = %v, %v", rec, err)
	}
	kvs, err := b.Scan(ctx, "t", "", 10, nil)
	if err != nil || len(kvs) != 1 || kvs[0].Key != "k" {
		t.Errorf("Scan = %v, %v", kvs, err)
	}
	if err := b.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(ctx, "t", "k", nil); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("Read deleted = %v", err)
	}
	if err := b.Cleanup(); err != nil {
		t.Fatal(err)
	}
}

func testCommitVisible(t *testing.T, _ txnLibrary, b db.TransactionalDB, _ *hookStore) {
	ctx := context.Background()
	tctx, err := b.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view := db.TxView(b, tctx)
	if err := view.Insert(ctx, "t", "a", db.Record{"bal": []byte("10")}); err != nil {
		t.Fatal(err)
	}
	if err := view.Update(ctx, "t", "a", db.Record{"memo": []byte("m")}); err != nil {
		t.Fatal(err)
	}
	if got := readField(t, view, "a", "bal"); got != "10" {
		t.Errorf("own insert read back %q", got)
	}
	if _, err := b.Read(ctx, "t", "a", nil); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("uncommitted insert visible: %v", err)
	}
	if err := b.Commit(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	if bal, memo := readField(t, b, "a", "bal"), readField(t, b, "a", "memo"); bal != "10" || memo != "m" {
		t.Errorf("after commit = bal:%q memo:%q", bal, memo)
	}
}

func testAbortLeavesNothing(t *testing.T, _ txnLibrary, b db.TransactionalDB, _ *hookStore) {
	ctx := context.Background()
	if err := b.Insert(ctx, "t", "a", db.Record{"bal": []byte("10")}); err != nil {
		t.Fatal(err)
	}
	tctx, err := b.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view := db.TxView(b, tctx)
	if err := view.Update(ctx, "t", "a", db.Record{"bal": []byte("99")}); err != nil {
		t.Fatal(err)
	}
	if err := view.Insert(ctx, "t", "b", db.Record{"bal": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	if got := readField(t, b, "a", "bal"); got != "10" {
		t.Errorf("aborted update leaked: %q", got)
	}
	if _, err := b.Read(ctx, "t", "b", nil); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("aborted insert leaked: %v", err)
	}
}

func testConflictAborts(t *testing.T, lib txnLibrary, b db.TransactionalDB, _ *hookStore) {
	ctx := context.Background()
	if err := b.Insert(ctx, "t", "k", db.Record{"n": []byte("0")}); err != nil {
		t.Fatal(err)
	}
	t1, _ := b.Start(ctx)
	t2, _ := b.Start(ctx)
	if err := db.TxView(b, t1).Update(ctx, "t", "k", db.Record{"n": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := db.TxView(b, t2).Update(ctx, "t", "k", db.Record{"n": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx, t1); err != nil {
		t.Fatal(err)
	}
	err := b.Commit(ctx, t2)
	if !errors.Is(err, db.ErrAborted) || !errors.Is(err, lib.conflict) {
		t.Errorf("conflicting commit = %v, want db.ErrAborted wrapping %v", err, lib.conflict)
	}
	if got := readField(t, b, "k", "n"); got != "1" {
		t.Errorf("n = %q, want the first committer's 1", got)
	}
}

func testAutoCommitRetries(t *testing.T, _ txnLibrary, b db.TransactionalDB, hs *hookStore) {
	ctx := context.Background()
	if err := b.Insert(ctx, "t", "k", db.Record{"n": []byte("0")}); err != nil {
		t.Fatal(err)
	}
	// Once the update has read k, another transaction commits a change
	// to it: the update's first attempt must conflict, and its retry
	// merge over the change.
	var hookErr error
	hs.hook = func() { hookErr = b.Update(ctx, "t", "k", db.Record{"other": []byte("x")}) }
	hs.armed.Store(true)
	if err := b.Update(ctx, "t", "k", db.Record{"n": []byte("1")}); err != nil {
		t.Fatalf("update = %v", err)
	}
	if hookErr != nil {
		t.Fatalf("concurrent update = %v", hookErr)
	}
	if n, other := readField(t, b, "k", "n"), readField(t, b, "k", "other"); n != "1" || other != "x" {
		t.Errorf("after retry = n:%q other:%q, want both updates", n, other)
	}
}

func testForeignContext(t *testing.T, _ txnLibrary, b db.TransactionalDB, _ *hookStore) {
	ctx := context.Background()
	for _, tctx := range []*db.TransactionContext{nil, {Handle: "foreign"}} {
		view := db.TxView(b, tctx)
		if err := view.Init(properties.New()); err != nil {
			t.Errorf("view Init = %v", err)
		}
		if err := view.Cleanup(); err != nil {
			t.Errorf("view Cleanup = %v", err)
		}
		for name, call := range map[string]func() error{
			"read":   func() error { _, err := view.Read(ctx, "t", "k", nil); return err },
			"scan":   func() error { _, err := view.Scan(ctx, "t", "", 10, nil); return err },
			"update": func() error { return view.Update(ctx, "t", "k", db.Record{"f": []byte("v")}) },
			"insert": func() error { return view.Insert(ctx, "t", "k", db.Record{"f": []byte("v")}) },
			"delete": func() error { return view.Delete(ctx, "t", "k") },
			"commit": func() error { return b.Commit(ctx, tctx) },
			"abort":  func() error { return b.Abort(ctx, tctx) },
		} {
			if err := call(); err == nil {
				t.Errorf("%s in context %+v succeeded", name, tctx)
			}
		}
	}
}
