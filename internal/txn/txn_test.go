package txn

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

func newTestManager(t *testing.T, opts Options) (*Manager, *kvstore.Store) {
	t.Helper()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	m, err := NewManager(opts, NewLocalStore("local", inner))
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

func TestCommitBasic(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})

	tx, err := m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ID() == "" {
		t.Error("empty txn id")
	}
	if err := tx.Insert("", "acct", "a", bal(100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("", "acct", "b", bal(200)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Both records visible, clean (no metadata), and the TSR cleaned up.
	for key, want := range map[string]int64{"a": 100, "b": 200} {
		rec, err := inner.Get("acct", key)
		if err != nil {
			t.Fatal(err)
		}
		if isPrepared(rec) {
			t.Errorf("%s still prepared after commit", key)
		}
		for f := range rec.FieldMap() {
			if isMetaField(f) {
				t.Errorf("%s has leftover metadata %s", key, f)
			}
		}
		var got int64
		fmt.Sscanf(string(rec.Field("balance")), "%d", &got)
		if got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if inner.Len(tsrTable) != 0 {
		t.Errorf("%d TSRs left behind", inner.Len(tsrTable))
	}
	commits, aborts, _, _ := m.Stats()
	if commits != 1 || aborts != 0 {
		t.Errorf("stats = %d commits, %d aborts", commits, aborts)
	}
}

func TestReadYourWrites(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	tx, _ := m.Begin(ctx)
	if err := tx.Insert("", "t", "k", bal(5)); err != nil {
		t.Fatal(err)
	}
	f, err := tx.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, f) != 5 {
		t.Errorf("read-your-writes = %v", f)
	}
	if err := tx.Delete("", "t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read(ctx, "", "t", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of own delete = %v", err)
	}
	tx.Abort(ctx)
}

func TestAbortLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	// Seed a committed record.
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(10))
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := m.Begin(ctx)
	if err := tx.Write("", "t", "k", bal(999)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("", "t", "new", bal(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	rec, err := inner.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Field("balance")) != "10" {
		t.Errorf("aborted write leaked: %s", rec.Field("balance"))
	}
	if _, err := inner.Get("t", "new"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("aborted insert leaked: %v", err)
	}
	// Using the finished txn fails.
	if _, err := tx.Read(ctx, "", "t", "k"); !errors.Is(err, ErrTxnDone) {
		t.Errorf("read after abort = %v", err)
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrTxnDone) {
		t.Errorf("commit after abort = %v", err)
	}
	if err := tx.Abort(ctx); err != nil {
		t.Errorf("double abort = %v", err)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(0))
	}); err != nil {
		t.Fatal(err)
	}

	t1, _ := m.Begin(ctx)
	t2, _ := m.Begin(ctx)
	// Both read the same version, both try to write.
	f1, err := t1.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := t2.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	t1.Write("", "t", "k", bal(getBal(t, f1)+1))
	t2.Write("", "t", "k", bal(getBal(t, f2)+1))
	if err := t1.Commit(ctx); err != nil {
		t.Fatalf("first committer should win: %v", err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer should conflict, got %v", err)
	}
	// Final value reflects exactly one increment.
	var final int64
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Read(ctx, "", "t", "k")
		if err != nil {
			return err
		}
		final = getBal(t, f)
		return nil
	})
	if final != 1 {
		t.Errorf("final = %d, want 1", final)
	}
	_, _, conflicts, _ := m.Stats()
	if conflicts != 1 {
		t.Errorf("conflicts = %d", conflicts)
	}
}

func TestInsertConflict(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	t1, _ := m.Begin(ctx)
	t2, _ := m.Begin(ctx)
	t1.Insert("", "t", "k", bal(1))
	t2.Insert("", "t", "k", bal(2))
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Errorf("duplicate insert should conflict: %v", err)
	}
}

func TestDeleteMissingConflicts(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	tx, _ := m.Begin(ctx)
	tx.Delete("", "t", "never-existed")
	if err := tx.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Errorf("delete of missing key = %v", err)
	}
}

func TestTransactionalDelete(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(7))
	})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Delete("", "t", "k")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Get("t", "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("record survived transactional delete: %v", err)
	}
}

// rmwStyles are the two ways a transaction writes a key it has read:
// a full-record Write of a value computed from the read, and the
// binding's read-merge-write Update, whose inner read is served from
// the read set — so only the prepare can catch a stale image.
var rmwStyles = map[string]func(ctx context.Context, tx *Txn, table, key string, fields map[string][]byte) error{
	"write": func(_ context.Context, tx *Txn, table, key string, fields map[string][]byte) error {
		return tx.Write("", table, key, fields)
	},
	"update": func(ctx context.Context, tx *Txn, table, key string, fields map[string][]byte) error {
		return viewOf(tx).Update(ctx, table, key, fields)
	},
}

// viewOf is the binding's in-transaction view of tx.
func viewOf(tx *Txn) db.DB {
	return NewBinding(tx.m).WithTx(&db.TransactionContext{Handle: tx})
}

func TestNoLostUpdatesUnderConcurrency(t *testing.T) {
	for name, put := range rmwStyles {
		t.Run(name, func(t *testing.T) { testNoLostUpdates(t, put) })
	}
}

func testNoLostUpdates(t *testing.T, put func(context.Context, *Txn, string, string, map[string][]byte) error) {
	// The core Tier 6 property: concurrent transactional RMW
	// increments never lose updates (every successful commit is
	// reflected), unlike the raw store.
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "ctr", bal(0))
	})
	const workers, per = 8, 40
	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := m.RunInTxn(ctx, 50, func(tx *Txn) error {
					f, err := tx.Read(ctx, "", "t", "ctr")
					if err != nil {
						return err
					}
					return put(ctx, tx, "t", "ctr", bal(getBal(t, f)+1))
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
		f, err := tx.Read(ctx, "", "t", "ctr")
		if err != nil {
			return err
		}
		final = getBal(t, f)
		return nil
	})
	if final != committed {
		t.Errorf("final = %d but %d commits succeeded (lost/phantom updates)", final, committed)
	}
	if committed == 0 {
		t.Error("no transaction ever committed")
	}
}

func TestMoneyTransferInvariant(t *testing.T) {
	for name, put := range rmwStyles {
		t.Run(name, func(t *testing.T) { testMoneyTransfer(t, put) })
	}
}

func testMoneyTransfer(t *testing.T, put func(context.Context, *Txn, string, string, map[string][]byte) error) {
	// CEW in miniature: concurrent transfers preserve total balance.
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	const accounts = 10
	const total = int64(accounts * 100)
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("", "acct", fmt.Sprintf("a%02d", i), bal(100)); err != nil {
				return err
			}
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				from := fmt.Sprintf("a%02d", (w+i)%accounts)
				to := fmt.Sprintf("a%02d", (w+i+1)%accounts)
				m.RunInTxn(ctx, 20, func(tx *Txn) error {
					ff, err := tx.Read(ctx, "", "acct", from)
					if err != nil {
						return err
					}
					tf, err := tx.Read(ctx, "", "acct", to)
					if err != nil {
						return err
					}
					if err := put(ctx, tx, "acct", from, bal(getBal(t, ff)-1)); err != nil {
						return err
					}
					return put(ctx, tx, "acct", to, bal(getBal(t, tf)+1))
				})
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	inner.ForEach("acct", func(_ string, rec *kvstore.VersionedRecord) bool {
		n, _ := strconv.ParseInt(string(rec.Field("balance")), 10, 64)
		sum += n
		return true
	})
	if sum != total {
		t.Errorf("total = %d, want %d (anomaly introduced)", sum, total)
	}
}

func TestReadAroundInFlightWriter(t *testing.T) {
	// A reader that encounters a prepared record from an in-flight
	// transaction sees the previous committed image.
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: time.Hour})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	})

	// Manually install a prepared record as an in-flight writer
	// would: new value 999, prev image balance=1.
	cur, _ := inner.Get("t", "k")
	prev := encodeImage(cur.FieldMap())
	prepared := map[string][]byte{
		"balance":     []byte("999"),
		metaState:     []byte("P"),
		metaID:        []byte("tother-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now(), 10)),
		metaPrev:      prev,
	}
	if _, err := inner.PutIfVersion("t", "k", prepared, cur.Version); err != nil {
		t.Fatal(err)
	}

	tx, _ := m.Begin(ctx)
	f, err := tx.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, f) != 1 {
		t.Errorf("read-around = %d, want previous image 1", getBal(t, f))
	}
	tx.Abort(ctx)
	// The prepared record must be untouched (writer still in flight).
	rec, _ := inner.Get("t", "k")
	if !isPrepared(rec) {
		t.Error("reader disturbed an in-flight prepare")
	}
}

func TestRecoveryRollsBackDeadWriter(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: 10 * time.Millisecond})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(42))
	})
	cur, _ := inner.Get("t", "k")
	prepared := map[string][]byte{
		"balance":     []byte("999"),
		metaState:     []byte("P"),
		metaID:        []byte("tdead-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now()-int64(time.Second), 10)),
		metaPrev:      encodeImage(cur.FieldMap()),
	}
	if _, err := inner.PutIfVersion("t", "k", prepared, cur.Version); err != nil {
		t.Fatal(err)
	}

	tx, _ := m.Begin(ctx)
	f, err := tx.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, f) != 42 {
		t.Errorf("recovered read = %d, want 42", getBal(t, f))
	}
	tx.Abort(ctx)
	rec, _ := inner.Get("t", "k")
	if isPrepared(rec) {
		t.Error("dead prepare not rolled back")
	}
	if string(rec.Field("balance")) != "42" {
		t.Errorf("rolled-back balance = %s", rec.Field("balance"))
	}
	_, _, _, recovered := m.Stats()
	if recovered == 0 {
		t.Error("recovery not counted")
	}
}

func TestRecoveryRollsForwardCommittedWriter(t *testing.T) {
	// Prepared record + committed TSR = the writer crashed after its
	// commit point; readers must roll it FORWARD.
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	})
	cur, _ := inner.Get("t", "k")
	prepared := map[string][]byte{
		"balance":     []byte("777"),
		metaState:     []byte("P"),
		metaID:        []byte("tcrashed-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now(), 10)),
		metaPrev:      encodeImage(cur.FieldMap()),
	}
	if _, err := inner.PutIfVersion("t", "k", prepared, cur.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := inner.Insert(tsrTable, "tcrashed-1", map[string][]byte{
		tsrState: []byte(tsrCommitted),
	}); err != nil {
		t.Fatal(err)
	}

	tx, _ := m.Begin(ctx)
	f, err := tx.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, f) != 777 {
		t.Errorf("roll-forward read = %d, want 777", getBal(t, f))
	}
	tx.Abort(ctx)
	rec, _ := inner.Get("t", "k")
	if isPrepared(rec) {
		t.Error("committed prepare not rolled forward")
	}
}

func TestRecoveryCommittedDelete(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	})
	cur, _ := inner.Get("t", "k")
	prepared := map[string][]byte{
		metaState:     []byte("P"),
		metaID:        []byte("tdel-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now(), 10)),
		metaPrev:      encodeImage(cur.FieldMap()),
		metaDelete:    []byte("1"),
	}
	if _, err := inner.PutIfVersion("t", "k", prepared, cur.Version); err != nil {
		t.Fatal(err)
	}
	inner.Insert(tsrTable, "tdel-1", map[string][]byte{tsrState: []byte(tsrCommitted)})

	tx, _ := m.Begin(ctx)
	if _, err := tx.Read(ctx, "", "t", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read of committed delete = %v", err)
	}
	tx.Abort(ctx)
	if _, err := inner.Get("t", "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Error("committed delete not applied during recovery")
	}
}

func TestSerializableReadValidation(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{SerializableReads: true})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "x", bal(1)); err != nil {
			return err
		}
		return tx.Insert("", "t", "y", bal(1))
	})
	// T1 reads x, writes y. T2 updates x in between. With
	// serializable reads T1 must abort.
	t1, _ := m.Begin(ctx)
	if _, err := t1.Read(ctx, "", "t", "x"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Write("", "t", "x", bal(99))
	}); err != nil {
		t.Fatal(err)
	}
	t1.Write("", "t", "y", bal(2))
	if err := t1.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Errorf("stale read should fail serializable validation: %v", err)
	}

	// Without the option the same schedule commits.
	m2, _ := newTestManager(t, Options{})
	m2.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "x", bal(1)); err != nil {
			return err
		}
		return tx.Insert("", "t", "y", bal(1))
	})
	t2, _ := m2.Begin(ctx)
	t2.Read(ctx, "", "t", "x")
	m2.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Write("", "t", "x", bal(99))
	})
	t2.Write("", "t", "y", bal(2))
	if err := t2.Commit(ctx); err != nil {
		t.Errorf("snapshot-mode commit = %v", err)
	}
}

func TestMultiStoreTransaction(t *testing.T) {
	ctx := context.Background()
	s1 := kvstore.OpenMemory()
	s2 := kvstore.OpenMemory()
	defer s1.Close()
	defer s2.Close()
	m, err := NewManager(Options{}, NewLocalStore("alpha", s1), NewLocalStore("beta", s2))
	if err != nil {
		t.Fatal(err)
	}
	// Empty store name must be rejected with multiple stores.
	tx, _ := m.Begin(ctx)
	if _, err := tx.Read(ctx, "", "t", "k"); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("ambiguous store = %v", err)
	}
	tx.Abort(ctx)

	// A transfer across stores commits atomically.
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("alpha", "acct", "a", bal(100)); err != nil {
			return err
		}
		return tx.Insert("beta", "acct", "b", bal(100))
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		fa, err := tx.Read(ctx, "alpha", "acct", "a")
		if err != nil {
			return err
		}
		fb, err := tx.Read(ctx, "beta", "acct", "b")
		if err != nil {
			return err
		}
		if err := tx.Write("alpha", "acct", "a", bal(getBal(t, fa)-30)); err != nil {
			return err
		}
		return tx.Write("beta", "acct", "b", bal(getBal(t, fb)+30))
	}); err != nil {
		t.Fatal(err)
	}
	ra, _ := s1.Get("acct", "a")
	rb, _ := s2.Get("acct", "b")
	if string(ra.Field("balance")) != "70" || string(rb.Field("balance")) != "130" {
		t.Errorf("cross-store transfer: a=%s b=%s", ra.Field("balance"), rb.Field("balance"))
	}
	// TSR lives on the coordinating store and is cleaned up on both.
	if s1.Len(tsrTable)+s2.Len(tsrTable) != 0 {
		t.Error("TSR left behind")
	}
	if _, err := m.store("gamma"); !errors.Is(err, ErrUnknownStore) {
		t.Errorf("unknown store = %v", err)
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Options{}); err == nil {
		t.Error("no stores should fail")
	}
	inner := kvstore.OpenMemory()
	defer inner.Close()
	if _, err := NewManager(Options{}, NewLocalStore("", inner)); err == nil {
		t.Error("empty store name should fail")
	}
	if _, err := NewManager(Options{}, NewLocalStore("x", inner), NewLocalStore("x", inner)); err == nil {
		t.Error("duplicate store name should fail")
	}
}

func TestReservedFieldRejected(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	tx, _ := m.Begin(ctx)
	defer tx.Abort(ctx)
	if err := tx.Write("", "t", "k", map[string][]byte{"_txn:state": []byte("C")}); err == nil {
		t.Error("reserved field accepted")
	}
}

func TestReadOnlyCommitIsTrivial(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	})
	before := inner.Len(tsrTable)
	tx, _ := m.Begin(ctx)
	if _, err := tx.Read(ctx, "", "t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if inner.Len(tsrTable) != before {
		t.Error("read-only commit wrote a TSR")
	}
}

func TestTxnScan(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert("", "t", fmt.Sprintf("k%02d", i), bal(int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	tx, _ := m.Begin(ctx)
	defer tx.Abort(ctx)
	// Buffered changes must be visible in the scan: update k03,
	// delete k04, insert k10½.
	tx.Write("", "t", "k03", bal(333))
	tx.Delete("", "t", "k04")
	tx.Insert("", "t", "k035", bal(35))
	kvs, err := tx.Scan(ctx, "", "t", "k02", 5)
	if err != nil {
		t.Fatal(err)
	}
	gotKeys := make([]string, len(kvs))
	for i, kv := range kvs {
		gotKeys[i] = kv.Key
	}
	want := []string{"k02", "k03", "k035", "k05", "k06"}
	if len(gotKeys) != len(want) {
		t.Fatalf("scan keys = %v, want %v", gotKeys, want)
	}
	for i := range want {
		if gotKeys[i] != want[i] {
			t.Fatalf("scan keys = %v, want %v", gotKeys, want)
		}
	}
	for _, kv := range kvs {
		if kv.Key == "k03" && string(kv.Fields.Map()["balance"]) != "333" {
			t.Errorf("buffered update not visible in scan: %v", kv.Fields.Map())
		}
	}
}

func TestHLCMonotonic(t *testing.T) {
	c := NewHLC()
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for i := 0; i < 1000; i++ {
				now := c.Now()
				if now <= prev {
					t.Errorf("clock went backwards: %d after %d", now, prev)
					return
				}
				prev = now
				mu.Lock()
				if seen[now] {
					t.Errorf("duplicate timestamp %d", now)
					mu.Unlock()
					return
				}
				seen[now] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestImageRoundTrip(t *testing.T) {
	cases := []map[string][]byte{
		{},
		{"a": []byte("1")},
		{"a": []byte("1"), "b": nil, "zz": []byte("value with spaces")},
		{"field0": make([]byte, 1000)},
	}
	for _, want := range cases {
		got, err := decodeImage(encodeImage(want))
		if err != nil {
			t.Fatalf("round trip of %v: %v", want, err)
		}
		if len(got) != len(want) {
			t.Errorf("got %d fields, want %d", len(got), len(want))
		}
		for f, v := range want {
			if string(got[f]) != string(v) {
				t.Errorf("field %s = %q, want %q", f, got[f], v)
			}
		}
	}
	// Metadata fields are excluded from images.
	img := encodeImage(map[string][]byte{"a": []byte("1"), metaState: []byte("P")})
	got, _ := decodeImage(img)
	if _, ok := got[metaState]; ok {
		t.Error("metadata leaked into image")
	}
	// Corrupt images fail loudly.
	if _, err := decodeImage([]byte{0xFF}); err == nil {
		t.Error("corrupt image accepted")
	}
	if _, err := decodeImage(append(encodeImage(map[string][]byte{"a": []byte("1")}), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// goldenImage is a previous image as an earlier build's encoder wrote
// it into prepared records: {balance: 100, empty: "", field0: 00 ff 0a}.
const goldenImage = "030762616c616e63650331303005656d70747900066669656c64300300ff0a"

var goldenFields = map[string]string{"balance": "100", "empty": "", "field0": "\x00\xff\n"}

func checkGoldenFields(t *testing.T, got map[string][]byte) {
	t.Helper()
	if len(got) != len(goldenFields) {
		t.Fatalf("fields = %q, want %q", got, goldenFields)
	}
	for f, v := range goldenFields {
		if string(got[f]) != v {
			t.Errorf("field %s = %q, want %q", f, got[f], v)
		}
	}
}

func TestImageDecodesStoredBytes(t *testing.T) {
	buf, err := hex.DecodeString(goldenImage)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeImage(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenFields(t, got)
	// The decoded values are not the stored bytes.
	buf[len(buf)-1] = 'X'
	checkGoldenFields(t, got)

	// A dead writer's prepared record carrying the image rolls back to it.
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: time.Millisecond})
	prev, _ := hex.DecodeString(goldenImage)
	if _, err := inner.Put("t", "k", map[string][]byte{
		"balance":     []byte("999"),
		metaState:     []byte("P"),
		metaID:        []byte("tdead-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte("1"),
		metaPrev:      prev,
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		f, err := tx.Read(ctx, "", "t", "k")
		if err == nil {
			checkGoldenFields(t, f)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := inner.Get("t", "k"); isPrepared(rec) {
		t.Error("dead writer's prepare was not rolled back")
	}
}

func TestRunInTxnRetries(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	attempts := 0
	err := m.RunInTxn(ctx, 5, func(tx *Txn) error {
		attempts++
		if attempts < 3 {
			return ErrConflict
		}
		return tx.Insert("", "t", "k", bal(1))
	})
	if err != nil || attempts != 3 {
		t.Errorf("RunInTxn = %v after %d attempts", err, attempts)
	}
	// Non-conflict errors pass through immediately.
	attempts = 0
	sentinel := errors.New("boom")
	err = m.RunInTxn(ctx, 5, func(tx *Txn) error {
		attempts++
		return sentinel
	})
	if !errors.Is(err, sentinel) || attempts != 1 {
		t.Errorf("RunInTxn error passthrough = %v after %d attempts", err, attempts)
	}
	// Exhausted retries surface ErrConflict.
	err = m.RunInTxn(ctx, 2, func(tx *Txn) error { return ErrConflict })
	if !errors.Is(err, ErrConflict) {
		t.Errorf("exhausted retries = %v", err)
	}
}
