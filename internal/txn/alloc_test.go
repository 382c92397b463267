package txn

import (
	"context"
	"fmt"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// localRead runs one read-only transaction through the binding, as the
// client demarcates it: read one account, commit.
func localRead(ctx context.Context, b *Binding) error {
	tctx, err := b.Start(ctx)
	if err != nil {
		return err
	}
	if _, err := b.WithTx(tctx).Read(ctx, "t", "a", nil); err != nil {
		return err
	}
	return b.Commit(ctx, tctx)
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

// TestLocalReadAllocs pins what a one-key read-only transaction
// through the binding allocates over an in-process store — the CEW's
// most common transaction, demarcated as the client does it, on the
// client's context.WithoutCancel context: 5 objects. They are the Txn,
// the TransactionContext and the map and buffer of the record Read
// hands out. Without a history sink Begin draws no timestamp and makes
// no id; the Txn is its own db.Txn, and the context keeps the one view
// WithTx hands out. It was 9 when Begin made the id (two objects) and
// every view of a transaction was a fresh one (one for its db.Txn on
// each of WithTx and Commit, one for WithTx's view).
func TestLocalReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 5
	b := newLocalTransfers(t)
	ctx := context.WithoutCancel(context.Background())
	got := testing.AllocsPerRun(200, func() {
		if err := localRead(ctx, b); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("a one-key read-only transaction allocates %v objects, want at most %d", got, want)
	}
}

// TestLocalRMWAllocs pins what one CEW transfer allocates over an
// in-process store, finish included: 80 objects. It was 94 while a
// partition remembered one image shape, so that each of the transfer's
// six writes — prepared images, clean images and the TSR, three shapes
// in one partition — built a new one, and while each prepare made its
// own copies of the id, coordinator and prepare timestamp. The table's
// two keys sit in one root leaf, where an overwrite builds a node and
// one slice whether the tree copies each node's keys and values
// together or only the values (a deeper table is TestBTreeWriteAllocs').
func TestLocalRMWAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 80
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
// no prepared image, no TSR insert or delete, no roll-forward, and no
// id or timestamp but the commit's. 17 objects: 21 when Begin made the
// id and each view of the transaction was a fresh one, and 58 for the
// two-phase commit of the same insert.
func TestLocalInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const want = 17
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

// BenchmarkLocalRead times one read-only transaction of one key over an
// in-process store, the transaction cew_embedded runs most.
func BenchmarkLocalRead(b *testing.B) {
	bd := newLocalTransfers(b)
	ctx := context.WithoutCancel(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := localRead(ctx, bd); err != nil {
			b.Fatal(err)
		}
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
