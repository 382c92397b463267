package txn

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
)

// cewTransfers runs n CEW transfers of one unit around a ring of
// accounts, each a read-modify-write of two accounts, and waits for
// their finishes.
func cewTransfers(t *testing.T, m *Manager, accounts, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		from := fmt.Sprintf("a%02d", i%accounts)
		to := fmt.Sprintf("a%02d", (i+1)%accounts)
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
			ff, err := tx.Read(ctx, "", "acct", from)
			if err != nil {
				return err
			}
			tf, err := tx.Read(ctx, "", "acct", to)
			if err != nil {
				return err
			}
			if err := tx.Write("", "acct", from, bal(getBal(t, ff)-1)); err != nil {
				return err
			}
			return tx.Write("", "acct", to, bal(getBal(t, tf)+1))
		}); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
}

// loadAccounts inserts the accounts at 100 each.
func loadAccounts(t *testing.T, m *Manager, accounts int) {
	t.Helper()
	if err := m.RunInTxn(context.Background(), 0, func(tx *Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("", "acct", fmt.Sprintf("a%02d", i), bal(100)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// tsrIndexEntries counts the keys _tsr holds in inner's index,
// tombstones included.
func tsrIndexEntries(t *testing.T, inner *kvstore.Store) int {
	t.Helper()
	kvs, err := inner.ScanVersionsAsOf(tsrTable, "", -1, inner.SnapshotTS())
	if err != nil {
		t.Fatal(err)
	}
	return len(kvs)
}

// wantAccounts fails unless every account reads committed and the
// balances add up to accounts × 100.
func wantAccounts(t *testing.T, inner *kvstore.Store, accounts int) {
	t.Helper()
	var sum int64
	for i := 0; i < accounts; i++ {
		rec, err := inner.Get("acct", fmt.Sprintf("a%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if isPrepared(rec) {
			t.Fatalf("a%02d left prepared", i)
		}
		n, err := strconv.ParseInt(string(rec.Field("balance")), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += n
	}
	if want := int64(accounts * 100); sum != want {
		t.Fatalf("balances sum to %d, want %d", sum, want)
	}
}

// TestTransfersLeaveNoTSR: each commit deletes its TSR once its writes
// are rolled forward, and on a default store that delete takes the key
// out of the index. A thousand transfers with no Vacuum leave _tsr
// empty — not a thousand tombstones.
func TestTransfersLeaveNoTSR(t *testing.T) {
	const accounts = 10
	m, inner := newTestManager(t, Options{})
	loadAccounts(t, m, accounts)
	cewTransfers(t, m, accounts, 1000)
	if n := tsrIndexEntries(t, inner); n != 0 {
		t.Fatalf("_tsr holds %d index entries after 1000 transfers, want 0", n)
	}
	wantAccounts(t, inner, accounts)
}

// TestRecoveredStoreHoldsNoTSR: the log keeps every TSR's put and
// tombstone, and a restart on it rebuilds none of the deleted TSRs. The
// accounts come back intact and reopening leaves the log as it was.
func TestRecoveredStoreHoldsNoTSR(t *testing.T) {
	const accounts = 10
	dir := filepath.Join(t.TempDir(), "wal")
	inner, err := kvstore.Open(kvstore.Options{Path: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{}, NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	loadAccounts(t, m, accounts)
	cewTransfers(t, m, accounts, 200)
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	digest := dirDigest(t, dir)

	inner, err = kvstore.Open(kvstore.Options{Path: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if n := tsrIndexEntries(t, inner); n != 0 {
		t.Fatalf("_tsr holds %d index entries after a restart, want 0", n)
	}
	wantAccounts(t, inner, accounts)
	if dirDigest(t, dir) != digest {
		t.Fatal("reopening rewrote the WAL")
	}
}

// dirDigest hashes the names and contents of dir's files.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStaleReadFailsAfterDeleteAndReinsert is the ABA schedule over a
// purged key: T1 reads k, T2 deletes it (its tombstone purged at
// once), T3 inserts it again and commits, and T1 then writes k from
// its stale read. k's new chain starts above the purged versions, so
// T1's prepare, conditional on the version it read, fails and T1
// aborts instead of committing over a record it never saw.
func TestStaleReadFailsAfterDeleteAndReinsert(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "acct", "k", bal(100))
	}); err != nil {
		t.Fatal(err)
	}

	t1, err := m.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := t1.Read(ctx, "", "acct", "k")
	if err != nil || getBal(t, f) != 100 {
		t.Fatalf("T1 read = %v, %v", f, err)
	}
	read, _ := inner.Get("acct", "k")

	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Delete("", "acct", "k") }); err != nil {
		t.Fatal(err)
	}
	if kvs, err := inner.ScanVersionsAsOf("acct", "", -1, inner.SnapshotTS()); err != nil || len(kvs) != 0 {
		t.Fatalf("sanity: k's tombstone not purged: %v, %v", kvs, err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Insert("", "acct", "k", bal(5)) }); err != nil {
		t.Fatal(err)
	}
	if rec, _ := inner.Get("acct", "k"); rec.Version <= read.Version {
		t.Fatalf("re-inserted k at v%d, not above T1's v%d", rec.Version, read.Version)
	}

	if err := t1.Write("", "acct", "k", bal(getBal(t, f)+1)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("T1 commit from a read of the purged chain: %v, want ErrConflict", err)
	}
	rec, err := inner.Get("acct", "k")
	if err != nil || string(rec.Field("balance")) != "5" {
		t.Fatalf("k after T1 = %v, %v; want T3's 5", rec, err)
	}
}

// unpinnedStore is a LocalStore whose snapshots pin nothing and which
// the manager's snapshot watermark does not reach — how a node would
// see a snapshot reader that cannot pin it remotely.
type unpinnedStore struct {
	Store
	inner *kvstore.Store
}

func (u unpinnedStore) Snapshot(context.Context) (int64, func(), error) {
	return u.inner.SnapshotTS(), func() {}, nil
}

func (u unpinnedStore) GetAsOf(_ context.Context, table, key string, ts int64) (*kvstore.VersionedRecord, error) {
	return u.inner.GetAsOf(table, key, ts)
}

func (u unpinnedStore) ScanAsOf(_ context.Context, table, startKey string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	return u.inner.ScanAsOf(table, startKey, count, ts)
}

// TestSnapshotReadsAroundInFlightWriterUnpinned: on a store whose
// snapshots pin nothing, the TSRs of later commits are purged past the
// snapshot, so the as-of TSR lookup for a prepared record answers
// ErrBelowHorizon. A reader still reads around a writer that is in
// flight, and around one whose TSR was written after the snapshot, as
// it does where the lookup answers.
func TestSnapshotReadsAroundInFlightWriterUnpinned(t *testing.T) {
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := NewManager(Options{RecoveryTimeout: time.Hour}, unpinnedStore{NewLocalStore("local", inner), inner})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "k", bal(1)); err != nil {
			return err
		}
		return tx.Insert("", "t", "other", bal(0))
	}); err != nil {
		t.Fatal(err)
	}

	// An in-flight writer's prepare of k.
	cur, _ := inner.Get("t", "k")
	prepared := map[string][]byte{
		"balance":     []byte("777"),
		metaState:     []byte("P"),
		metaID:        []byte("tflight-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now(), 10)),
		metaPrev:      encodeImage(cur.FieldMap()),
	}
	if _, err := inner.PutIfVersion("t", "k", prepared, cur.Version); err != nil {
		t.Fatal(err)
	}

	ro, _ := m.BeginReadOnly(ctx)
	defer ro.Abort(ctx)
	if _, err := ro.Read(ctx, "", "t", "other"); err != nil { // draws the snapshot
		t.Fatal(err)
	}
	// Other transactions commit on the same coordinator after the
	// snapshot; each one's TSR is purged with its delete. Each writes two
	// keys: a one-key commit writes no TSR.
	for i := 0; i < 3; i++ {
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
			if err := tx.Write("", "t", fmt.Sprint("w", i), bal(int64(i))); err != nil {
				return err
			}
			return tx.Write("", "t", fmt.Sprint("x", i), bal(int64(i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inner.GetAsOf(tsrTable, "tflight-1", ro.ReadTS("")); !errors.Is(err, kvstore.ErrBelowHorizon) {
		t.Fatalf("sanity: the as-of TSR lookup answers %v, want ErrBelowHorizon", err)
	}

	readAround := func(when string) {
		t.Helper()
		if f, err := ro.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 1 {
			t.Fatalf("%s: snapshot read = %v, %v; want the previous image 1", when, f, err)
		}
		kvs, err := ro.Scan(ctx, "", "t", "k", 1)
		if err != nil || len(kvs) != 1 || getBal(t, kvs[0].Fields.Map()) != 1 {
			t.Fatalf("%s: snapshot scan = %v, %v; want k at 1", when, kvs, err)
		}
	}
	readAround("writer in flight")

	// The writer reaches its commit point after the snapshot.
	if _, err := inner.Insert(tsrTable, "tflight-1", map[string][]byte{tsrState: []byte(tsrCommitted)}); err != nil {
		t.Fatal(err)
	}
	readAround("TSR written after the snapshot")
}

// TestSnapshotNeverGuessesAFinishedWriter: a writer prepared k on a
// store that keeps it for the reader's pin, and committed before the
// snapshot on a coordinator whose snapshots pin nothing. It then
// finishes: k rolls forward and its TSR is purged. The prepared image
// is still there as of the snapshot, but nothing dates the commit any
// more, so the read fails with ErrBelowHorizon — it must not read
// around a commit the snapshot should see.
func TestSnapshotNeverGuessesAFinishedWriter(t *testing.T) {
	ctx := context.Background()
	data, coord := kvstore.OpenMemory(), kvstore.OpenMemory()
	defer data.Close()
	defer coord.Close()
	m, err := NewManager(Options{RecoveryTimeout: time.Hour},
		NewLocalStore("data", data), unpinnedStore{NewLocalStore("coord", coord), coord})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("data", "t", "k", bal(1)); err != nil {
			return err
		}
		return tx.Insert("coord", "t", "c", bal(0))
	}); err != nil {
		t.Fatal(err)
	}

	cur, _ := data.Get("t", "k")
	preparedVer, err := data.PutIfVersion("t", "k", map[string][]byte{
		"balance":     []byte("777"),
		metaState:     []byte("P"),
		metaID:        []byte("tdone-1"),
		metaCoord:     []byte("coord"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now(), 10)),
		metaPrev:      encodeImage(cur.FieldMap()),
	}, cur.Version)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Insert(tsrTable, "tdone-1", map[string][]byte{tsrState: []byte(tsrCommitted)}); err != nil {
		t.Fatal(err)
	}

	ro, _ := m.BeginReadOnly(ctx)
	defer ro.Abort(ctx)
	for _, store := range []string{"coord", "data"} { // both snapshots after the commit point
		if _, err := ro.Scan(ctx, store, "t", "", -1); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := data.PutIfVersion("t", "k", bal(777), preparedVer); err != nil {
		t.Fatal(err)
	}
	if err := coord.Delete(tsrTable, "tdone-1"); err != nil {
		t.Fatal(err)
	}
	if f, err := ro.Read(ctx, "data", "t", "k"); !errors.Is(err, kvstore.ErrBelowHorizon) {
		t.Fatalf("snapshot read after the writer finished = %v, %v; want ErrBelowHorizon", f, err)
	}
}
