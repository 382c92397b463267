package txn

import (
	"context"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// TestReadOnlyTxnAllocs pins what a one-key read-only transaction
// through the binding allocates over an in-process store — the CEW's
// most common transaction, demarcated as the client does it, on the
// client's context.WithoutCancel context. The read set's first entry
// lives in the Txn, and Begin looks up no session when no history sink
// is installed: 9 objects, three fewer than the 12 it took when the
// read set was a map (two objects) and every Begin looked the session
// up (one, on this context).
func TestReadOnlyTxnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 9
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := NewManager(Options{}, NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Flush(context.Background())
	b := NewBinding(m)
	ctx := context.WithoutCancel(context.Background())
	if err := b.Insert(ctx, "t", "k", db.Record{"field0": []byte("100")}); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		tctx, err := b.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WithTx(tctx).Read(ctx, "t", "k", nil); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx, tctx); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("a one-key read-only transaction allocates %v objects, want at most %d", got, want)
	}
}

// localTransfer runs one CEW transfer through the binding, as the
// client demarcates it: read both accounts, update both, commit.
func localTransfer(ctx context.Context, b *Binding) error {
	tctx, err := b.Start(ctx)
	if err != nil {
		return err
	}
	view := b.WithTx(tctx)
	for _, k := range []string{"a", "c"} {
		if _, err := view.Read(ctx, "t", k, nil); err != nil {
			return err
		}
	}
	if err := view.Update(ctx, "t", "a", db.Record{"field0": []byte("99")}); err != nil {
		return err
	}
	if err := view.Update(ctx, "t", "c", db.Record{"field0": []byte("101")}); err != nil {
		return err
	}
	return b.Commit(ctx, tctx)
}

// newLocalTransfers returns a binding over a raw LocalStore holding the
// two accounts localTransfer moves money between.
func newLocalTransfers(tb testing.TB) (*Manager, *Binding) {
	tb.Helper()
	inner := kvstore.OpenMemory()
	tb.Cleanup(func() { inner.Close() })
	m, err := NewManager(Options{}, NewLocalStore("local", inner))
	if err != nil {
		tb.Fatal(err)
	}
	b := NewBinding(m)
	ctx := context.Background()
	for _, k := range []string{"a", "c"} {
		if err := b.Insert(ctx, "t", k, db.Record{"field0": []byte("100")}); err != nil {
			tb.Fatal(err)
		}
	}
	return m, b
}

// TestLocalRMWAllocs pins what one CEW transfer allocates over an
// in-process store, finish included: the Flush in the loop makes the
// count a whole transfer's whichever goroutine finished it. The finish
// runs on the committer, so no goroutine is started for it and no
// closure is built to start one: 94 objects, where handing the finish
// to a goroutine took 96.
func TestLocalRMWAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 94
	m, b := newLocalTransfers(t)
	ctx := context.WithoutCancel(context.Background())
	got := testing.AllocsPerRun(200, func() {
		if err := localTransfer(ctx, b); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("a CEW transfer allocates %v objects, want at most %d", got, want)
	}
}

// BenchmarkLocalRMW times one CEW transfer over an in-process store,
// the transaction cew_embedded runs: go test -bench LocalRMW
// -cpuprofile shows where a commit's time goes, the finish included.
func BenchmarkLocalRMW(b *testing.B) {
	m, bd := newLocalTransfers(b)
	ctx := context.WithoutCancel(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := localTransfer(ctx, bd); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := m.Flush(ctx); err != nil {
		b.Fatal(err)
	}
}
