package txn

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
)

// TestReadOnlyTxnFrozenReads is the core snapshot property: once a
// read-only transaction touches a store, every later read — point or
// scan — answers from the same frozen cut no matter how many write
// transactions commit after it.
func TestReadOnlyTxnFrozenReads(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "a", bal(1)); err != nil {
			return err
		}
		return tx.Insert("", "t", "b", bal(2))
	}); err != nil {
		t.Fatal(err)
	}

	ro, err := m.BeginReadOnly(ctx)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := m.BeginReadOnly(ctx)
	if id := ro.ID(); !strings.HasPrefix(id, "r"+m.id+"-") || id == other.ID() {
		t.Errorf("read-only ids %q and %q: want two distinct ids under r%s-", id, other.ID(), m.id)
	}
	other.Abort(ctx)
	f, err := ro.Read(ctx, "", "t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if getBal(t, f) != 1 {
		t.Fatalf("first read = %d, want 1", getBal(t, f))
	}
	if ro.ReadTS("") == 0 {
		t.Fatal("no snapshot ts pinned after first read")
	}
	if m.MinActiveSnapshot() == int64(math.MaxInt64) {
		t.Fatal("watermark empty while a snapshot txn is live")
	}

	// Writers commit on top: overwrite a, delete b, insert c.
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Write("", "t", "a", bal(100)); err != nil {
			return err
		}
		if err := tx.Delete("", "t", "b"); err != nil {
			return err
		}
		return tx.Insert("", "t", "c", bal(3))
	}); err != nil {
		t.Fatal(err)
	}

	if f, err = ro.Read(ctx, "", "t", "a"); err != nil || getBal(t, f) != 1 {
		t.Fatalf("re-read a = %v, %v; want 1", f, err)
	}
	if f, err = ro.Read(ctx, "", "t", "b"); err != nil || getBal(t, f) != 2 {
		t.Fatalf("read deleted-later b = %v, %v; want 2", f, err)
	}
	if _, err := ro.Read(ctx, "", "t", "c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read later-inserted c: %v, want ErrNotFound", err)
	}
	kvs, err := ro.Scan(ctx, "", "t", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != "a" || kvs[1].Key != "b" {
		t.Fatalf("snapshot scan = %v, want [a b]", kvs)
	}
	if err := ro.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if m.MinActiveSnapshot() != int64(math.MaxInt64) {
		t.Fatal("watermark not cleared after commit")
	}

	// A fresh snapshot sees the new world.
	ro2, _ := m.BeginReadOnly(ctx)
	defer ro2.Abort(ctx)
	if f, err := ro2.Read(ctx, "", "t", "a"); err != nil || getBal(t, f) != 100 {
		t.Fatalf("fresh snapshot a = %v, %v; want 100", f, err)
	}
	if _, err := ro2.Read(ctx, "", "t", "b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fresh snapshot b: %v, want ErrNotFound", err)
	}
}

// TestReadOnlyTxnDoneAndUnsupported covers the bookkeeping edges: reads
// after Commit fail with ErrTxnDone, and a store without version
// history reports ErrSnapshotUnsupported.
func TestReadOnlyTxnDoneAndUnsupported(t *testing.T) {
	ctx := context.Background()
	m, _ := newTestManager(t, Options{})
	ro, _ := m.BeginReadOnly(ctx)
	if err := ro.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Read(ctx, "", "t", "k"); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after commit: %v, want ErrTxnDone", err)
	}
	if err := ro.Commit(ctx); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v, want ErrTxnDone", err)
	}
	if err := ro.Abort(ctx); err != nil {
		t.Fatalf("abort after commit: %v, want nil", err)
	}

	m2, err := NewManager(Options{}, plainStore{})
	if err != nil {
		t.Fatal(err)
	}
	ro2, _ := m2.BeginReadOnly(ctx)
	defer ro2.Abort(ctx)
	if _, err := ro2.Read(ctx, "", "t", "k"); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("snapshot read on plain store: %v, want ErrSnapshotUnsupported", err)
	}
}

// plainStore is a Store with no SnapshotStore capability.
type plainStore struct{ Store }

func (plainStore) Name() string { return "plain" }

// TestReadOnlyTxnPreparedResolution pins the commit-point semantics of
// snapshot reads against in-flight writers: a prepared record's
// transaction counts as committed for a snapshot iff its TSR existed
// at the snapshot timestamp — decided by looking the TSR up in its own
// version history, never by repairing anything.
func TestReadOnlyTxnPreparedResolution(t *testing.T) {
	ctx := context.Background()
	m, inner := newTestManager(t, Options{RecoveryTimeout: time.Hour})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}
	flush(t, m)

	// Install a prepared overwrite exactly as an in-flight writer
	// would: new value 777 with the previous image in metadata.
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

	// ro1 pins between prepare and commit point: it must read around
	// to the previous image, now and forever — even after the writer
	// commits.
	ro1, _ := m.BeginReadOnly(ctx)
	defer ro1.Abort(ctx)
	if f, err := ro1.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 1 {
		t.Fatalf("pre-commit snapshot read = %v, %v; want 1", f, err)
	}

	// The writer reaches its commit point: the TSR write.
	if _, err := inner.Insert(tsrTable, "tflight-1", map[string][]byte{
		tsrState: []byte(tsrCommitted),
	}); err != nil {
		t.Fatal(err)
	}

	if f, err := ro1.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 1 {
		t.Fatalf("snapshot read after commit point = %v, %v; want 1 (commit is after my snapshot)", f, err)
	}
	// The prepared record was not repaired by the snapshot reads.
	if rec, _ := inner.Get("t", "k"); !isPrepared(rec) {
		t.Fatal("snapshot reader repaired an in-flight prepare")
	}

	// ro2 pins after the commit point: committed-as-of, new image.
	ro2, _ := m.BeginReadOnly(ctx)
	defer ro2.Abort(ctx)
	if f, err := ro2.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 777 {
		t.Fatalf("post-commit snapshot read = %v, %v; want 777", f, err)
	}

	// The committer finishes and deletes its TSR; ro2's answer must not
	// change — the deletion is a later tombstone its as-of TSR lookup
	// never sees.
	if err := inner.Delete(tsrTable, "tflight-1"); err != nil {
		t.Fatal(err)
	}
	if f, err := ro2.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 777 {
		t.Fatalf("snapshot read after TSR cleanup = %v, %v; want 777", f, err)
	}
}

// TestSnapshotHoldsVacuum is the vacuum-hole regression: with an
// aggressive engine retention window and both vacuums running (the
// engine's version vacuum and the manager's TSR vacuum), a pinned
// snapshot reader must never observe a hole where its version used to
// be. The manager's min-active-ts watermark is what holds the engine's
// reclaim horizon back.
func TestSnapshotHoldsVacuum(t *testing.T) {
	ctx := context.Background()
	inner, err := kvstore.Open(kvstore.Options{Retention: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	m, err := NewManager(Options{RecoveryTimeout: 5 * time.Millisecond}, NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}

	ro, _ := m.BeginReadOnly(ctx)
	defer ro.Abort(ctx)
	if f, err := ro.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 1 {
		t.Fatalf("pinned read = %v, %v; want 1", f, err)
	}

	// Overwrite repeatedly, age everything past retention, and run both
	// vacuums several times.
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
				return tx.Write("", "t", "k", bal(int64(100+round*10+i)))
			}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(3 * time.Millisecond)
		inner.Vacuum()
		if _, _, err := m.Vacuum(ctx); err != nil {
			t.Fatal(err)
		}
		if f, err := ro.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 1 {
			t.Fatalf("round %d: pinned read after vacuum = %v, %v; want 1 (vacuumed hole)", round, f, err)
		}
	}

	// Release; with no active snapshot the floor clears and the old
	// version becomes reclaimable.
	ts := ro.ReadTS("")
	if err := ro.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * time.Millisecond)
	inner.Vacuum()
	if _, err := inner.GetAsOf("t", "k", ts); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("post-release engine read at %d: %v, want ErrNotFound (version reclaimed)", ts, err)
	}
}
