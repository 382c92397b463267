package txn

import (
	"context"
	"fmt"
	"testing"

	"ycsbt/internal/kvstore"
)

// TestTxnLayerUpholdsImmutability runs full client-coordinated
// transactions (reads, read-modify-writes, deletes, an abort, and a
// validation-style scan) over an audited engine: with clone-on-read
// gone from the engine, the transaction layer must never mutate a
// record it fetched — it builds fresh field maps for every write. The
// read set RETAINS fetched records for the life of the transaction
// (repeat reads, updates and prepares are served from them), so the
// test also scribbles on what Read returned and takes the paths that
// re-use a retained image: a repeated read, txUpdate's merge, and —
// in serializable mode — the read-lock that writes the image back.
func TestTxnLayerUpholdsImmutability(t *testing.T) {
	for _, serializable := range []bool{false, true} {
		t.Run(fmt.Sprintf("serializable=%v", serializable), func(t *testing.T) {
			testTxnLayerUpholdsImmutability(t, Options{SerializableReads: serializable})
		})
	}
}

func testTxnLayerUpholdsImmutability(t *testing.T, opts Options) {
	ctx := context.Background()
	audit := kvstore.NewAuditEngine(kvstore.OpenMemoryShards(4))
	defer audit.Close()
	m, err := NewManager(opts, NewLocalStore("local", audit))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 16; i++ {
		tx, err := m.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("local", "t", fmt.Sprintf("acct%02d", i), bal(100)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Read-modify-write transfers: the pre-reads hand out engine-owned
	// records whose balances feed freshly built post-images.
	for i := 0; i < 8; i++ {
		tx, err := m.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		a, b := fmt.Sprintf("acct%02d", i), fmt.Sprintf("acct%02d", 15-i)
		fa, err := tx.Read(ctx, "local", "t", a)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := tx.Read(ctx, "local", "t", b)
		if err != nil {
			t.Fatal(err)
		}
		newA, newB := bal(getBal(t, fa)-5), bal(getBal(t, fb)+5)
		// What Read returned is the caller's: editing it must reach
		// neither the engine's record nor the next read of the key.
		fa["balance"][0] = '!'
		if again, err := tx.Read(ctx, "local", "t", a); err != nil || getBal(t, again)-5 != getBal(t, newA) {
			t.Fatalf("repeated read = %v, %v", again, err)
		}
		if err := tx.Write("local", "t", a, newA); err != nil {
			t.Fatal(err)
		}
		if err := txUpdate(ctx, tx, "local", "t", b, newB); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Read one key, write another: in serializable mode the read key is
	// locked by writing its retained image back.
	tx, err := m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(ctx, "local", "t", "acct01"); err != nil {
		t.Fatal(err)
	}
	if err := txUpdate(ctx, tx, "local", "t", "acct02", map[string][]byte{"memo": []byte("m")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// An aborted transaction and a delete both walk the recovery and
	// rollback paths over fetched records.
	tx, err = m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(ctx, "local", "t", "acct00"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("local", "t", "acct00", bal(0)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	tx, err = m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("local", "t", "acct15"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	flush(t, m)
	// Validation-style full scan.
	kvs, err := audit.Scan("t", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, kv := range kvs {
		total += getBal(t, kv.Record.FieldMap())
	}
	// 16 accounts of 100, minus deleted acct15 (100 + 5 received).
	if total != 16*100-105 {
		t.Fatalf("balance sum = %d, want 1495", total)
	}

	if err := audit.Verify(); err != nil {
		t.Fatal(err)
	}
	if audit.Handed() == 0 {
		t.Fatal("audit observed no records")
	}
}
