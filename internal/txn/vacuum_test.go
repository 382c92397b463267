package txn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
)

// agedClock runs age behind the clock it wraps.
type agedClock struct {
	Clock
	age time.Duration
}

func (c agedClock) Now() int64 { return c.Clock.Now() - int64(c.age) }

// afterCommitPoint reports a store call a committer makes only once
// its TSR has landed: a roll-forward, or the TSR delete.
func afterCommitPoint(op, table string, fields map[string][]byte) bool {
	return isRollForward(op, table, fields) || op == "Delete" && table == tsrTable
}

// crashWriter writes balance to every key of keys in one transaction,
// through a client of its own over inner whose clock runs age behind,
// and kills that client at the first store call dies picks: that call
// and every one after it fail, as if the process had gone. It returns
// what Commit returned.
func crashWriter(t *testing.T, inner *kvstore.Store, keys []string, balance int64, age time.Duration, dies func(op, table string, fields map[string][]byte) bool) error {
	t.Helper()
	ctx := context.Background()
	var dead atomic.Bool
	ss := &scriptStore{Store: NewLocalStore("local", inner)}
	ss.before = func(op, table, _ string, fields map[string][]byte) error {
		if dead.Load() || dies(op, table, fields) {
			dead.Store(true)
			return errors.New("client died")
		}
		return nil
	}
	m, err := NewManager(Options{Clock: agedClock{NewHLC(), age}}, ss)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := m.Begin(ctx)
	for _, k := range keys {
		if err := tx.Write("", "t", k, bal(balance)); err != nil {
			t.Fatal(err)
		}
	}
	err = tx.Commit(ctx)
	if !dead.Load() {
		t.Fatal("the writer finished without dying")
	}
	return err
}

// installCrashedCommit leaves the debris of a committer that died
// right after writing its TSR, commitAge ago: keys prepared with
// balance 777 under a committed TSR naming them.
func installCrashedCommit(t *testing.T, inner *kvstore.Store, keys []string, commitAge time.Duration) {
	t.Helper()
	if err := crashWriter(t, inner, keys, 777, commitAge, afterCommitPoint); err != nil {
		t.Fatalf("commit of the writer that died after its commit point = %v, want committed", err)
	}
}

func TestVacuumFinishesCrashedCommits(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: 50 * time.Millisecond})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for _, k := range []string{"a", "b", "c"} {
			if err := tx.Insert("", "t", k, bal(1)); err != nil {
				return err
			}
		}
		return nil
	})
	installCrashedCommit(t, inner, []string{"a", "b"}, time.Second)

	removed, resolved, err := m.Vacuum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Errorf("removed %d TSRs, want 1", removed)
	}
	if resolved != 2 {
		t.Errorf("resolved %d records, want 2", resolved)
	}
	// The prepared records were rolled forward to the committed value.
	for _, k := range []string{"a", "b"} {
		rec, err := inner.Get("t", k)
		if err != nil {
			t.Fatal(err)
		}
		if isPrepared(rec) {
			t.Errorf("%s still prepared after vacuum", k)
		}
		if string(rec.Field("balance")) != "777" {
			t.Errorf("%s = %s, want rolled-forward 777", k, rec.Field("balance"))
		}
	}
	if inner.Len(tsrTable) != 0 {
		t.Errorf("%d TSRs remain", inner.Len(tsrTable))
	}
	// Untouched record unaffected.
	rec, _ := inner.Get("t", "c")
	if string(rec.Field("balance")) != "1" {
		t.Errorf("c = %s", rec.Field("balance"))
	}
}

func TestVacuumSkipsYoungTSRs(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: time.Hour})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "a", bal(1))
	})
	installCrashedCommit(t, inner, []string{"a"}, 0)
	removed, _, err := m.Vacuum(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("vacuum removed a fresh TSR")
	}
	if inner.Len(tsrTable) != 1 {
		t.Errorf("fresh TSR deleted")
	}
}

func TestVacuumEmptyStore(t *testing.T) {
	m, _ := newTestManager(t, Options{})
	removed, resolved, err := m.Vacuum(context.Background())
	if err != nil || removed != 0 || resolved != 0 {
		t.Errorf("vacuum on empty store = %d, %d, %v", removed, resolved, err)
	}
}

func TestWriteSetRoundTrip(t *testing.T) {
	in := []wkey{{"s1", "t1", "k1"}, {"s2", "t2", "key with spaces"}}
	got := decodeWriteSet(encodeWriteSet(in))
	if len(got) != len(in) {
		t.Fatalf("round trip = %v", got)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], in[i])
		}
	}
	if decodeWriteSet(nil) != nil {
		t.Error("nil input should decode to nil")
	}
	if decodeWriteSet([]byte{0x05, 0x01}) != nil {
		t.Error("corrupt input should decode to nil")
	}
}
