package txn

import (
	"context"
	"fmt"
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
func newLocalTransfers(tb testing.TB) *Binding {
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
	return b
}

// TestLocalRMWAllocs pins what one CEW transfer allocates over an
// in-process store, finish included: 94 objects. The table's two keys
// sit in one root leaf, where an overwrite builds a node and one slice
// whether the tree copies each node's keys and values together or only
// the values, and the _tsr record's insert and delete build 4 objects
// between them either way; so the count stayed at 94 when writes came
// to copy only the slice they change (a deeper table is
// TestBTreeWriteAllocs').
func TestLocalRMWAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 94
	b := newLocalTransfers(t)
	ctx := context.WithoutCancel(context.Background())
	got := testing.AllocsPerRun(200, func() {
		if err := localTransfer(ctx, b); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("a CEW transfer allocates %v objects, want at most %d", got, want)
	}
}

// TestLocalInsertAllocs pins what one transactional insert of a fresh
// key allocates over an in-process store, demarcated as the load phase
// does it: a one-key commit, whose create-only put is the whole commit —
// no prepared image, no TSR insert or delete, no roll-forward. 21
// objects, where the two-phase commit of the same insert took 58.
func TestLocalInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 21
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := NewManager(Options{}, NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinding(m)
	ctx := context.WithoutCancel(context.Background())
	// AllocsPerRun runs the function once more than it is asked to.
	const runs = 200
	keys := make([]string, runs+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%04d", i)
	}
	rec := db.Record{"field0": []byte("100")}
	n := 0
	got := testing.AllocsPerRun(runs, func() {
		tctx, err := b.Start(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WithTx(tctx).Insert(ctx, "t", keys[n], rec); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx, tctx); err != nil {
			t.Fatal(err)
		}
		n++
	})
	if got > want {
		t.Fatalf("a one-key insert allocates %v objects, want at most %d", got, want)
	}
}

// BenchmarkLocalRMW times one CEW transfer over an in-process store,
// the transaction cew_embedded runs: go test -bench LocalRMW
// -cpuprofile shows where a commit's time goes, the finish included.
func BenchmarkLocalRMW(b *testing.B) {
	bd := newLocalTransfers(b)
	ctx := context.WithoutCancel(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := localTransfer(ctx, bd); err != nil {
			b.Fatal(err)
		}
	}
}
