package percolator

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/oracle"
	"ycsbt/internal/txn"
)

func newTestManager(t *testing.T, opts Options) (*Manager, *kvstore.Store) {
	t.Helper()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	m, err := NewManager(opts, txn.NewLocalStore("local", inner), oracle.NewLocal())
	if err != nil {
		t.Fatal(err)
	}
	return m, inner
}

func bal(n int64) map[string][]byte {
	return map[string][]byte{"balance": []byte(strconv.FormatInt(n, 10))}
}

func getBal(t *testing.T, f map[string][]byte) int64 {
	t.Helper()
	n, err := strconv.ParseInt(string(f["balance"]), 10, 64)
	if err != nil {
		t.Fatalf("bad balance %q: %v", f["balance"], err)
	}
	return n
}

func TestCommitAndSnapshotRead(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})

	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Put("t", "a", bal(10)); err != nil {
			return err
		}
		return tx.Put("t", "b", bal(20))
	}); err != nil {
		t.Fatal(err)
	}
	// A later snapshot sees the committed values.
	tx, err := m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := tx.Get(ctx, "t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, fa) != 10 {
		t.Errorf("a = %d", getBal(t, fa))
	}
	tx.Rollback(ctx)
	commits, _, _, _ := m.Stats()
	if commits != 1 {
		t.Errorf("commits = %d", commits)
	}
}

func TestSnapshotIsolationReadsOldVersion(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "k", bal(1)) })

	// T1 snapshots before T2 commits a new version; T1 must keep
	// seeing the old value (MVCC), not the new one.
	t1, _ := m.Begin(ctx)
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "k", bal(2)) }); err != nil {
		t.Fatal(err)
	}
	f, err := t1.Get(ctx, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, f) != 1 {
		t.Errorf("snapshot read = %d, want 1 (old version)", getBal(t, f))
	}
	t1.Rollback(ctx)

	// A fresh transaction sees 2.
	t2, _ := m.Begin(ctx)
	f, _ = t2.Get(ctx, "t", "k")
	if getBal(t, f) != 2 {
		t.Errorf("fresh read = %d", getBal(t, f))
	}
	t2.Rollback(ctx)
}

func TestWriteWriteConflictFirstCommitterWins(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "k", bal(0)) })

	t1, _ := m.Begin(ctx)
	t2, _ := m.Begin(ctx)
	f1, _ := t1.Get(ctx, "t", "k")
	f2, _ := t2.Get(ctx, "t", "k")
	t1.Put("t", "k", bal(getBal(t, f1)+1))
	t2.Put("t", "k", bal(getBal(t, f2)+1))
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer = %v, want conflict", err)
	}
	var final int64
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Get(ctx, "t", "k")
		if err != nil {
			return err
		}
		final = getBal(t, f)
		return nil
	})
	if final != 1 {
		t.Errorf("final = %d, want 1", final)
	}
}

func TestRollbackRemovesLocksAndNewRecords(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "old", bal(5)) })

	tx, _ := m.Begin(ctx)
	tx.Put("t", "old", bal(99))
	tx.Put("t", "new", bal(1))
	// Force prewrite without commit by... committing would finish it;
	// instead drive prewrite through a conflict: manually prewrite.
	// Simpler: rollback after a full prewrite via an oracle error is
	// overkill — use the internal API.
	keys := []tkey{{"t", "new"}, {"t", "old"}}
	for _, k := range keys {
		if err := tx.prewrite(ctx, k, keys[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	// Old record intact and unlocked; new record gone.
	rec, err := inner.Get("t", "old")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Field(lockField)) != 0 {
		t.Error("lock left behind")
	}
	if _, err := inner.Get("t", "new"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("rolled-back insert survived: %v", err)
	}
	// Old value unchanged.
	var got int64
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Get(ctx, "t", "old")
		if err != nil {
			return err
		}
		got = getBal(t, f)
		return nil
	})
	if got != 5 {
		t.Errorf("old = %d", got)
	}
}

func TestTransactionalDeleteAndTombstone(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "k", bal(7)) })
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Delete("t", "k") }); err != nil {
		t.Fatal(err)
	}
	tx, _ := m.Begin(ctx)
	if _, err := tx.Get(ctx, "t", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of deleted key = %v", err)
	}
	// Scans skip tombstones.
	kvs, err := tx.Scan(ctx, "t", "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 0 {
		t.Errorf("scan = %v", kvs)
	}
	tx.Rollback(ctx)
}

func TestReadYourWritesAndScanOverlay(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			if err := tx.Put("t", fmt.Sprintf("k%d", i), bal(int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	tx, _ := m.Begin(ctx)
	defer tx.Rollback(ctx)
	tx.Put("t", "k2", bal(222))
	tx.Delete("t", "k3")
	tx.Put("t", "k9", bal(9))
	f, err := tx.Get(ctx, "t", "k2")
	if err != nil || getBal(t, f) != 222 {
		t.Errorf("read-your-writes = %v, %v", f, err)
	}
	kvs, err := tx.Scan(ctx, "t", "k1", 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"k1", "k2", "k4", "k9"}
	if len(kvs) != len(want) {
		t.Fatalf("scan = %+v", kvs)
	}
	for i, w := range want {
		if kvs[i].Key != w {
			t.Fatalf("scan keys = %+v, want %v", kvs, want)
		}
	}
}

func TestRecoveryRollForwardViaPrimary(t *testing.T) {
	// A writer that crashes after committing its primary but before
	// its secondaries: readers of the secondary must roll it forward.
	ctx := context.Background()
	m, _ := newTestManager(t, Options{LockTTL: 20 * time.Millisecond})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Put("t", "p", bal(1)); err != nil {
			return err
		}
		return tx.Put("t", "s", bal(1))
	})

	// Prewrite both, then commit only the primary ("crash").
	tx, _ := m.Begin(ctx)
	tx.Put("t", "p", bal(100))
	tx.Put("t", "s", bal(200))
	for _, k := range []tkey{{"t", "p"}, {"t", "s"}} {
		if err := tx.prewrite(ctx, k, tkey{"t", "p"}); err != nil {
			t.Fatal(err)
		}
	}
	commitTS, err := m.to.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.commitRecord(ctx, "t", "p", tx.startTS, commitTS); err != nil {
		t.Fatal(err)
	}
	// Crash: never commit the secondary. Wait past the TTL.
	time.Sleep(30 * time.Millisecond)

	var got int64
	if err := m.RunInTxn(ctx, 3, func(tx2 *Txn) error {
		f, err := tx2.Get(ctx, "t", "s")
		if err != nil {
			return err
		}
		got = getBal(t, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 200 {
		t.Errorf("secondary after roll-forward = %d, want 200", got)
	}
	_, _, _, recovered := m.Stats()
	if recovered == 0 {
		t.Error("recovery not counted")
	}
}

func TestRecoveryRollBackDeadPrewrite(t *testing.T) {
	// A writer that crashes between prewrite and primary commit:
	// readers roll everything back.
	ctx := context.Background()
	m, _ := newTestManager(t, Options{LockTTL: 20 * time.Millisecond})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "k", bal(42)) })

	tx, _ := m.Begin(ctx)
	tx.Put("t", "k", bal(999))
	if err := tx.prewrite(ctx, tkey{"t", "k"}, tkey{"t", "k"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // crash; TTL expires

	var got int64
	if err := m.RunInTxn(ctx, 3, func(tx2 *Txn) error {
		f, err := tx2.Get(ctx, "t", "k")
		if err != nil {
			return err
		}
		got = getBal(t, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("read after rollback = %d, want 42", got)
	}
}

func TestFreshLockBlocksThenFails(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{
		LockTTL:         time.Hour,
		ReadLockRetries: 2,
		ReadLockBackoff: time.Millisecond,
	})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "k", bal(1)) })

	holder, _ := m.Begin(ctx)
	holder.Put("t", "k", bal(2))
	if err := holder.prewrite(ctx, tkey{"t", "k"}, tkey{"t", "k"}); err != nil {
		t.Fatal(err)
	}
	reader, _ := m.Begin(ctx)
	if _, err := reader.Get(ctx, "t", "k"); !errors.Is(err, ErrLocked) {
		t.Errorf("read under fresh lock = %v, want ErrLocked", err)
	}
	reader.Rollback(ctx)
	holder.Rollback(ctx)
	// After rollback the record is readable again.
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		_, err := tx.Get(ctx, "t", "k")
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNoLostUpdatesConcurrent(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Put("t", "ctr", bal(0)) })
	const workers, per = 8, 30
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := m.RunInTxn(ctx, 50, func(tx *Txn) error {
					f, err := tx.Get(ctx, "t", "ctr")
					if err != nil {
						return err
					}
					return tx.Put("t", "ctr", bal(getBal(t, f)+1))
				})
				if err == nil {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	var final int64
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Get(ctx, "t", "ctr")
		if err != nil {
			return err
		}
		final = getBal(t, f)
		return nil
	})
	if final != committed {
		t.Errorf("final = %d, committed = %d", final, committed)
	}
	if committed == 0 {
		t.Error("nothing committed")
	}
}

func TestVersionPruning(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{MaxVersions: 3})
	for i := 0; i < 10; i++ {
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
			return tx.Put("t", "k", bal(int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := inner.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	versions := 0
	rec.Range(func(f string, _ []byte) bool {
		if parseDataField(f) >= 0 {
			versions++
		}
		return true
	})
	if versions > 3 {
		t.Errorf("%d versions retained, want ≤ 3", versions)
	}
	// Latest value survives pruning.
	var got int64
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Get(ctx, "t", "k")
		if err != nil {
			return err
		}
		got = getBal(t, f)
		return nil
	})
	if got != 9 {
		t.Errorf("latest = %d", got)
	}
}

func TestOracleRTTSlowsTransactions(t *testing.T) {
	// The Section II-B claim in miniature: a 10ms-away oracle makes
	// even an in-memory read-write transaction pay ≥ 2 RTTs.
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := NewManager(Options{}, txn.NewLocalStore("local", inner),
		oracle.NewDelayed(oracle.NewLocal(), 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Put("t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("read-write txn took %v, want ≥ 2×10ms oracle RTTs", elapsed)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	lk := lockRecord{PrimaryTable: "t", PrimaryKey: "pk", StartTS: 12345, WallNano: 67890}
	got, err := decodeLock(encodeLock(lk))
	if err != nil || got != lk {
		t.Errorf("lock round trip = %+v, %v", got, err)
	}
	if _, err := decodeLock([]byte{0xFF}); err == nil {
		t.Error("corrupt lock accepted")
	}
	if _, err := decodeLock(nil); err == nil {
		t.Error("empty lock accepted")
	}

	for _, del := range []bool{false, true} {
		fields := map[string][]byte{"a": []byte("1"), "b": nil}
		buf := encodePending(del, 777, fields)
		gdel, gf, err := decodePending(buf)
		if err != nil || gdel != del || len(gf) != 2 || string(gf["a"]) != "1" {
			t.Errorf("pending round trip del=%v: %v %v %v", del, gdel, gf, err)
		}
		if sts, ok := pendingStartTS(buf); !ok || sts != 777 {
			t.Errorf("pendingStartTS = %d, %v", sts, ok)
		}
	}
	if _, _, err := decodePending([]byte{1, 2}); err == nil {
		t.Error("short pending accepted")
	}
	if _, ok := pendingStartTS(nil); ok {
		t.Error("empty pendingStartTS accepted")
	}
}

// goldenPending is a pending payload as an earlier build's encoder
// wrote it: a put at start_ts 1234567 of {balance: 100, empty: "",
// field0: 00 ff 0a}.
const goldenPending = "0087d6120000000000030762616c616e63650331303005656d70747900066669656c64300300ff0a"

func checkGoldenFields(t *testing.T, got map[string][]byte) {
	t.Helper()
	want := map[string]string{"balance": "100", "empty": "", "field0": "\x00\xff\n"}
	if len(got) != len(want) {
		t.Fatalf("fields = %q, want %q", got, want)
	}
	for f, v := range want {
		if string(got[f]) != v {
			t.Errorf("field %s = %q, want %q", f, got[f], v)
		}
	}
}

func TestPendingDecodesStoredBytes(t *testing.T) {
	buf, err := hex.DecodeString(goldenPending)
	if err != nil {
		t.Fatal(err)
	}
	del, got, err := decodePending(buf)
	if err != nil || del {
		t.Fatalf("decodePending = %v, %v", del, err)
	}
	checkGoldenFields(t, got)
	if sts, ok := pendingStartTS(buf); !ok || sts != 1234567 {
		t.Errorf("pendingStartTS = %d, %v", sts, ok)
	}
	// The decoded values are not the stored bytes.
	buf[len(buf)-1] = 'X'
	checkGoldenFields(t, got)

	// A primary committed with the payload and a secondary still locked
	// with it: both read back, the secondary by rolling it forward.
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	payload, _ := hex.DecodeString(goldenPending)
	if _, err := inner.Put("t", "p", map[string][]byte{dataField(1234568): payload}); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Put("t", "s", map[string][]byte{
		lockField:  encodeLock(lockRecord{PrimaryTable: "t", PrimaryKey: "p", StartTS: 1234567}),
		pendingFld: payload,
	}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"p", "s"} {
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
			f, err := tx.Get(ctx, "t", key)
			if err == nil {
				checkGoldenFields(t, f)
			}
			return err
		}); err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
	}
	if rec, _ := inner.Get("t", "s"); rec.Field(lockField) != nil {
		t.Error("secondary was not rolled forward")
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Options{}, nil, oracle.NewLocal()); err == nil {
		t.Error("nil store accepted")
	}
	inner := kvstore.OpenMemory()
	defer inner.Close()
	if _, err := NewManager(Options{}, txn.NewLocalStore("x", inner), nil); err == nil {
		t.Error("nil oracle accepted")
	}
}

func TestReservedFieldRejected(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	tx, _ := m.Begin(ctx)
	defer tx.Rollback(ctx)
	if err := tx.Put("t", "k", map[string][]byte{"_perc:lock": []byte("x")}); err == nil {
		t.Error("reserved field accepted")
	}
}

func TestTxnDone(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	tx, _ := m.Begin(ctx)
	tx.Rollback(ctx)
	if _, err := tx.Get(ctx, "t", "k"); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Get after rollback = %v", err)
	}
	if err := tx.Put("t", "k", bal(1)); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Put after rollback = %v", err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxnDone) {
		t.Errorf("Commit after rollback = %v", err)
	}
	if err := tx.Rollback(ctx); err != nil {
		t.Errorf("double rollback = %v", err)
	}
	// Read-only commit is trivial.
	tx2, _ := m.Begin(ctx)
	if err := tx2.Commit(ctx); err != nil {
		t.Errorf("read-only commit = %v", err)
	}
}
