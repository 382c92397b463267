package txn

import (
	"context"
	"strconv"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
)

// installCrashedCommit fabricates the debris of a committer that died
// right after writing its TSR: prepared records + a committed TSR
// with the write set.
func installCrashedCommit(t *testing.T, m *Manager, inner *kvstore.Store, txnID string, keys []string, commitAge time.Duration) {
	t.Helper()
	for _, key := range keys {
		cur, err := inner.Get("t", key)
		if err != nil {
			t.Fatal(err)
		}
		if err := InstallPreparedForTest(inner, "t", key, cur, bal(777), txnID, "local"); err != nil {
			t.Fatal(err)
		}
	}
	wset := make([]wkey, 0, len(keys))
	for _, key := range keys {
		wset = append(wset, wkey{"local", "t", key})
	}
	commitTS := m.opts.Clock.Now() - int64(commitAge)
	if _, err := inner.Insert(tsrTable, txnID, map[string][]byte{
		tsrState:    []byte(tsrCommitted),
		tsrCommitTS: []byte(strconv.FormatInt(commitTS, 10)),
		tsrWriteSet: encodeWriteSet(wset),
	}); err != nil {
		t.Fatal(err)
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
	flush(t, m)
	installCrashedCommit(t, m, inner, "tdead-42", []string{"a", "b"}, time.Second)

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
		if isPrepared(rec.Fields) {
			t.Errorf("%s still prepared after vacuum", k)
		}
		if string(rec.Fields["balance"]) != "777" {
			t.Errorf("%s = %s, want rolled-forward 777", k, rec.Fields["balance"])
		}
	}
	if inner.Len(tsrTable) != 0 {
		t.Errorf("%d TSRs remain", inner.Len(tsrTable))
	}
	// Untouched record unaffected.
	rec, _ := inner.Get("t", "c")
	if string(rec.Fields["balance"]) != "1" {
		t.Errorf("c = %s", rec.Fields["balance"])
	}
}

func TestVacuumSkipsYoungTSRs(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: time.Hour})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "a", bal(1))
	})
	flush(t, m)
	installCrashedCommit(t, m, inner, "tfresh-1", []string{"a"}, 0)
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

func TestVacuumLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m, inner := newTestManager(t, Options{RecoveryTimeout: time.Millisecond})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "a", bal(1))
	})
	flush(t, m)
	installCrashedCommit(t, m, inner, "tloop-1", []string{"a"}, time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.VacuumLoop(ctx, 5*time.Millisecond, nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for inner.Len(tsrTable) > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	if inner.Len(tsrTable) != 0 {
		t.Error("vacuum loop never cleaned the TSR")
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
