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
