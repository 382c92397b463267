package txn

import (
	"context"
	"errors"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/history"
)

// TestReadSetInlineAndMap: the read set keeps its first key inline and
// the others in a map, and every user of it treats both alike. Each
// case reads a (the inline entry) and then b (the map's).
func TestReadSetInlineAndMap(t *testing.T) {
	ctx := context.Background()
	// setup returns a manager over a call-logging store holding a, b and
	// c, and a transaction that has read a and then b.
	setup := func(t *testing.T, opts Options) (*Manager, *scriptStore, *Txn) {
		t.Helper()
		m, ss, _ := newScriptManager(t, opts)
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
			for _, k := range []string{"a", "b", "c"} {
				if err := tx.Insert("", "t", k, bal(1)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ss.take()
		tx, err := m.Begin(db.WithSession(ctx, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"a", "b"} {
			if _, err := tx.Read(ctx, "", "t", k); err != nil {
				t.Fatal(err)
			}
		}
		wantCalls(t, "first reads", ss.take(), "Get t/a", "Get t/b")
		return m, ss, tx
	}

	t.Run("repeated reads", func(t *testing.T) {
		_, ss, tx := setup(t, Options{})
		for _, k := range []string{"b", "a"} {
			if f, err := tx.Read(ctx, "", "t", k); err != nil || getBal(t, f) != 1 {
				t.Fatalf("repeated read of %s = %v, %v", k, f, err)
			}
		}
		wantCalls(t, "repeated reads", ss.take())
	})

	for _, k := range []string{"a", "b"} {
		t.Run("scan sees "+k+" moved", func(t *testing.T) {
			m, _, tx := setup(t, Options{})
			if err := m.RunInTxn(ctx, 0, func(w *Txn) error { return w.Write("", "t", k, bal(2)) }); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Scan(ctx, "", "t", "", 10); !errors.Is(err, ErrConflict) {
				t.Fatalf("scan over a moved %s = %v, want ErrConflict", k, err)
			}
		})
	}

	t.Run("serializable materializes both", func(t *testing.T) {
		_, ss, tx := setup(t, Options{SerializableReads: true})
		if err := tx.Write("", "t", "c", bal(2)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "serializable commit", ss.take(),
			"Put t/a", "Put t/b", "Get t/c", "Put t/c", "Put _tsr",
			"Put t/a", "Put t/b", "Put t/c", "Delete _tsr")
	})

	t.Run("history lists both", func(t *testing.T) {
		sink := &history.MemorySink{}
		_, _, tx := setup(t, Options{History: sink})
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		recs := sink.Records()
		last := recs[len(recs)-1]
		got := map[string]uint64{}
		for _, op := range last.Ops {
			if op.Kind == history.OpRead {
				got[op.Key] = op.Ver
			}
		}
		if len(last.Ops) != 2 || got["a"] == 0 || got["b"] == 0 {
			t.Errorf("history record ops = %+v, want reads of a and b", last.Ops)
		}
		if last.Session != 7 || last.Outcome != history.OutcomeCommit || last.CommitTS == 0 {
			t.Errorf("history record = session %d, %s at %d; want session 7, a commit with a timestamp", last.Session, last.Outcome, last.CommitTS)
		}
	})
}
