package percolator

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ycsbt/internal/client"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/oracle"
	"ycsbt/internal/properties"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

func newTestBinding(t *testing.T) *Binding {
	t.Helper()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	m, err := NewManager(Options{}, txn.NewLocalStore("local", inner), oracle.NewLocal())
	if err != nil {
		t.Fatal(err)
	}
	return NewBinding(m)
}

func TestBindingTransactionalFlow(t *testing.T) {
	ctx := context.Background()
	b := newTestBinding(t)
	tctx, err := b.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	view := b.WithTx(tctx)
	if err := view.Insert(ctx, "t", "a", db.Record{"bal": []byte("10")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx, tctx); err != nil {
		t.Fatal(err)
	}
	rec, err := b.Read(ctx, "t", "a", nil)
	if err != nil || string(rec["bal"]) != "10" {
		t.Fatalf("after commit = %v, %v", rec, err)
	}
	// Abort path.
	t2, _ := b.Start(ctx)
	v2 := b.WithTx(t2)
	if err := v2.Update(ctx, "t", "a", db.Record{"bal": []byte("99")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(ctx, t2); err != nil {
		t.Fatal(err)
	}
	rec, _ = b.Read(ctx, "t", "a", nil)
	if string(rec["bal"]) != "10" {
		t.Errorf("aborted update leaked: %s", rec["bal"])
	}
	// Context validation.
	if err := b.Commit(ctx, nil); err == nil {
		t.Error("nil tctx accepted")
	}
	// A foreign context yields a view that fails loudly instead of
	// committing each operation on its own.
	v := b.WithTx(&db.TransactionContext{Handle: 42})
	if err := v.Insert(ctx, "t", "c", db.Record{"bal": []byte("1")}); err == nil {
		t.Error("foreign view insert succeeded")
	}
	if _, err := v.Read(ctx, "t", "a", nil); err == nil {
		t.Error("foreign view read succeeded")
	}
	if _, err := b.Read(ctx, "t", "c", nil); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("foreign view wrote outside a transaction: %v", err)
	}
}

func TestBindingInitBackends(t *testing.T) {
	for _, backend := range []string{"memory", "was", "gcs"} {
		b := &Binding{}
		p := properties.FromMap(map[string]string{
			"percolator.backend":      backend,
			"cloudsim.readlatency_us": "0",
		})
		if err := b.Init(p); err != nil {
			t.Fatalf("Init(%s) = %v", backend, err)
		}
		b.Cleanup()
	}
	b := &Binding{}
	if err := b.Init(properties.FromMap(map[string]string{"percolator.backend": "nope"})); err == nil {
		t.Error("unknown backend accepted")
	}
	// The protocol runs over one store: a backend of two is refused.
	b = &Binding{}
	if err := b.Init(properties.FromMap(map[string]string{"percolator.backend": "was+gcs"})); err == nil || !strings.Contains(err.Error(), "runs over one") {
		t.Errorf("was+gcs backend: %v, want refused as more than one store", err)
	}
	b = &Binding{}
	if err := b.Init(properties.FromMap(map[string]string{"percolator.backend": "cluster"})); err == nil || !strings.Contains(err.Error(), "cluster.nodes") {
		t.Errorf("cluster backend without nodes: %v, want refused for want of cluster.nodes", err)
	}
}

func TestPercolatorCEWInvariant(t *testing.T) {
	// The Tier 6 check against the Percolator-style protocol: the CEW
	// invariant must hold (snapshot isolation forbids lost updates).
	ctx := context.Background()
	b := newTestBinding(t)
	p := properties.FromMap(map[string]string{
		"workload":                  "closedeconomy",
		"recordcount":               "300",
		"totalcash":                 "30000",
		"operationcount":            "8000",
		"threadcount":               "8",
		"readproportion":            "0.5",
		"readmodifywriteproportion": "0.5",
		"requestdistribution":       "zipfian",
	})
	w, err := workload.New("closedeconomy")
	if err != nil {
		t.Fatal(err)
	}
	reg := measurement.NewRegistry(0)
	if err := w.Init(p, reg); err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.BuildConfig(p), w, b, reg)
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
		t.Fatalf("Percolator CEW broke the invariant: %+v", res.Validation)
	}
	t.Logf("percolator CEW: %d ops, %d aborts, score %g",
		res.Operations, res.Aborts, res.Validation.AnomalyScore)
}

func TestPercolatorWithRemoteOracle(t *testing.T) {
	// Two managers ("client hosts") share one timestamp oracle and one
	// store — the multi-client Percolator deployment shape.
	to := oracle.NewLocal()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	store := txn.NewLocalStore("local", inner)
	newM := func() *Manager {
		m, err := NewManager(Options{}, store, to)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := newM(), newM()
	ctx := context.Background()
	if err := m1.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Put("t", "k", map[string][]byte{"n": []byte("1")})
	}); err != nil {
		t.Fatal(err)
	}
	// m2's snapshot (timestamp from the shared oracle) sees m1's commit.
	var got string
	if err := m2.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Get(ctx, "t", "k")
		if err != nil {
			return err
		}
		got = string(f["n"])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "1" {
		t.Errorf("cross-manager read = %q", got)
	}
	// Conflicts across managers behave as within one.
	t1, _ := m1.Begin(ctx)
	t2, _ := m2.Begin(ctx)
	t1.Get(ctx, "t", "k")
	t2.Get(ctx, "t", "k")
	t1.Put("t", "k", map[string][]byte{"n": []byte("2")})
	t2.Put("t", "k", map[string][]byte{"n": []byte("3")})
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Errorf("cross-manager conflict = %v", err)
	}
}
