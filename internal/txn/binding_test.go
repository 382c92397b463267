package txn

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/properties"
)

func newTestBinding(t *testing.T) (*Binding, *kvstore.Store) {
	t.Helper()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	m, err := NewManager(Options{}, NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	return NewBinding(m), inner
}

func TestBindingAutoCommitCRUD(t *testing.T) {
	ctx := context.Background()
	b, _ := newTestBinding(t)
	if err := b.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(ctx, "t", "k", db.Record{"f": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	rec, err := b.Read(ctx, "t", "k", nil)
	if err != nil || string(rec["f"]) != "1" {
		t.Fatalf("Read = %v, %v", rec, err)
	}
	if err := b.Update(ctx, "t", "k", db.Record{"g": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	rec, _ = b.Read(ctx, "t", "k", nil)
	if string(rec["f"]) != "1" || string(rec["g"]) != "2" {
		t.Errorf("merged = %v", rec)
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

func TestBindingTransactionalFlow(t *testing.T) {
	ctx := context.Background()
	b, inner := newTestBinding(t)

	tctx, err := b.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view := b.WithTx(tctx)
	if err := view.Insert(ctx, "t", "a", db.Record{"bal": []byte("10")}); err != nil {
		t.Fatal(err)
	}
	if err := view.Insert(ctx, "t", "b", db.Record{"bal": []byte("20")}); err != nil {
		t.Fatal(err)
	}
	// Nothing visible before commit.
	if _, err := inner.Get("t", "a"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("uncommitted insert visible: %v", err)
	}
	if err := b.Commit(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get("t", "a"); err != nil {
		t.Errorf("committed insert missing: %v", err)
	}

	// Abort path.
	tctx2, _ := b.Start(ctx)
	view2 := b.WithTx(tctx2)
	if err := view2.Update(ctx, "t", "a", db.Record{"bal": []byte("99")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(ctx, tctx2); err != nil {
		t.Fatal(err)
	}
	rec, _ := inner.Get("t", "a")
	if string(rec.Field("bal")) != "10" {
		t.Errorf("aborted update leaked: %s", rec.Field("bal"))
	}
}

func TestBindingConflictSurfacesAsAborted(t *testing.T) {
	ctx := context.Background()
	b, _ := newTestBinding(t)
	if err := b.Insert(ctx, "t", "k", db.Record{"n": []byte("0")}); err != nil {
		t.Fatal(err)
	}
	t1, _ := b.Start(ctx)
	t2, _ := b.Start(ctx)
	v1 := b.WithTx(t1)
	v2 := b.WithTx(t2)
	if err := v1.Update(ctx, "t", "k", db.Record{"n": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := v2.Update(ctx, "t", "k", db.Record{"n": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx, t1); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx, t2); !errors.Is(err, db.ErrAborted) {
		t.Errorf("conflicting commit = %v, want ErrAborted", err)
	}
}

func TestBindingTxContextValidation(t *testing.T) {
	ctx := context.Background()
	b, _ := newTestBinding(t)
	if err := b.Commit(ctx, nil); err == nil {
		t.Error("nil context accepted")
	}
	if err := b.Commit(ctx, &db.TransactionContext{Handle: "garbage"}); err == nil {
		t.Error("foreign handle accepted")
	}
	// WithTx with a foreign handle falls back to the binding itself.
	if v := b.WithTx(&db.TransactionContext{}); v != b {
		t.Error("foreign WithTx should return the binding")
	}
}

func TestBindingInitBackends(t *testing.T) {
	for _, backend := range []string{"memory", "was", "gcs", "was+gcs"} {
		b := &Binding{}
		p := properties.FromMap(map[string]string{
			"txnkv.backend":           backend,
			"cloudsim.readlatency_us": "0",
		})
		if err := b.Init(p); err != nil {
			t.Fatalf("Init(%s) = %v", backend, err)
		}
		wantStores := 1
		if backend == "was+gcs" {
			wantStores = 2
		}
		if len(b.names) != wantStores {
			t.Errorf("%s: %d stores", backend, len(b.names))
		}
		b.Cleanup()
	}
	b := &Binding{}
	if err := b.Init(properties.FromMap(map[string]string{"txnkv.backend": "nope"})); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestBindingMultiStorePartitioning(t *testing.T) {
	ctx := context.Background()
	s1 := kvstore.OpenMemory()
	s2 := kvstore.OpenMemory()
	defer s1.Close()
	defer s2.Close()
	m, err := NewManager(Options{}, NewLocalStore("alpha", s1), NewLocalStore("beta", s2))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinding(m)
	const n = 50
	for i := 0; i < n; i++ {
		if err := b.Insert(ctx, "t", fmt.Sprintf("user%03d", i), db.Record{"f": []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	// Keys must be spread across both stores.
	if s1.Len("t") == 0 || s2.Len("t") == 0 {
		t.Errorf("partitioning skewed: alpha=%d beta=%d", s1.Len("t"), s2.Len("t"))
	}
	if s1.Len("t")+s2.Len("t") != n {
		t.Errorf("records lost: %d + %d != %d", s1.Len("t"), s2.Len("t"), n)
	}
	// Cross-store scan merges both partitions in key order.
	kvs, err := b.Scan(ctx, "t", "", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("merged scan = %d records", len(kvs))
	}
	for i := 1; i < len(kvs); i++ {
		if kvs[i-1].Key >= kvs[i].Key {
			t.Fatal("merged scan out of order")
		}
	}
	// Every key reads back through the partitioned path.
	for i := 0; i < n; i++ {
		if _, err := b.Read(ctx, "t", fmt.Sprintf("user%03d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBindingConcurrentTransfersPreserveInvariant(t *testing.T) {
	// End-to-end Tier 6 check through the binding: concurrent
	// transactional RMW via the db interface never breaks the sum.
	ctx := context.Background()
	b, inner := newTestBinding(t)
	const accounts = 8
	for i := 0; i < accounts; i++ {
		if err := b.Insert(ctx, "acct", fmt.Sprintf("a%d", i), db.Record{"bal": []byte("100")}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				from := fmt.Sprintf("a%d", (w+i)%accounts)
				to := fmt.Sprintf("a%d", (w+i+3)%accounts)
				if from == to {
					continue
				}
				// One attempt per iteration; conflicts abort cleanly.
				tctx, err := b.Start(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				view := b.WithTx(tctx)
				ok := func() bool {
					rf, err := view.Read(ctx, "acct", from, nil)
					if err != nil {
						return false
					}
					rt, err := view.Read(ctx, "acct", to, nil)
					if err != nil {
						return false
					}
					nf, _ := strconv.Atoi(string(rf["bal"]))
					nt, _ := strconv.Atoi(string(rt["bal"]))
					if view.Update(ctx, "acct", from, db.Record{"bal": []byte(strconv.Itoa(nf - 1))}) != nil {
						return false
					}
					return view.Update(ctx, "acct", to, db.Record{"bal": []byte(strconv.Itoa(nt + 1))}) == nil
				}()
				if ok {
					b.Commit(ctx, tctx) // conflict abort is fine
				} else {
					b.Abort(ctx, tctx)
				}
			}
		}(w)
	}
	wg.Wait()
	var sum int
	inner.ForEach("acct", func(_ string, rec *kvstore.VersionedRecord) bool {
		n, _ := strconv.Atoi(string(rec.Field("bal")))
		sum += n
		return true
	})
	if sum != accounts*100 {
		t.Errorf("sum = %d, want %d", sum, accounts*100)
	}
}
