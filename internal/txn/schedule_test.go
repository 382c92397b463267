package txn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// scriptStore wraps a Store for schedule tests: it logs every call as
// "Op table/key" (TSR calls as "Op _tsr", their key being a fresh
// transaction id) and lets a test intercept calls — before runs ahead
// of the call, on the goroutine making it, and a non-nil error from it
// drops the call, which fails with it. A call is logged when before
// returns, so one that before holds back is not in the log yet.
type scriptStore struct {
	Store
	mu     sync.Mutex
	calls  []string
	before func(op, table, key string, fields map[string][]byte) error
}

func (s *scriptStore) note(op, table, key string, fields map[string][]byte) error {
	var err error
	if s.before != nil {
		err = s.before(op, table, key, fields)
	}
	call := op + " " + table
	if table != tsrTable {
		call += "/" + key
	}
	s.mu.Lock()
	s.calls = append(s.calls, call)
	s.mu.Unlock()
	return err
}

// take returns the calls logged since the last take.
func (s *scriptStore) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.calls
	s.calls = nil
	return c
}

// isRollForward reports a finish's (or a resolving reader's) write of a
// clean image over a prepared record.
func isRollForward(op, table string, fields map[string][]byte) bool {
	return op == "Put" && table != tsrTable && !isPrepared(&kvstore.VersionedRecord{Fields: fields})
}

func (s *scriptStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	if err := s.note("Get", table, key, nil); err != nil {
		return nil, err
	}
	return s.Store.Get(ctx, table, key)
}

func (s *scriptStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	if err := s.note("Put", table, key, fields); err != nil {
		return 0, err
	}
	return s.Store.Put(ctx, table, key, fields, expect)
}

func (s *scriptStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	if err := s.note("Delete", table, key, nil); err != nil {
		return err
	}
	return s.Store.Delete(ctx, table, key, expect)
}

func (s *scriptStore) Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	if err := s.note("Scan", table, startKey, nil); err != nil {
		return nil, err
	}
	return s.Store.Scan(ctx, table, startKey, count)
}

// newScriptManager opens a manager over one scriptStore around an
// in-memory engine.
func newScriptManager(t *testing.T, opts Options) (*Manager, *scriptStore, *kvstore.Store) {
	t.Helper()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	ss := &scriptStore{Store: NewLocalStore("local", inner)}
	m, err := NewManager(opts, ss)
	if err != nil {
		t.Fatal(err)
	}
	return m, ss, inner
}

func wantCalls(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: store calls\n got %q\nwant %q", what, got, want)
	}
}

// TestCommitScheduleStoreCalls pins the commit schedule with a count,
// not a clock: every store call is a round trip on a remote backend,
// so the list below IS the protocol's cost — every call is made by the
// time Commit returns, the finish's included. A transaction asks the
// store only for what it does not hold — the repeated runs check the
// counts repeat exactly. A write set of one key commits with its one
// write and leaves no TSR; two keys or more take the two-phase
// schedule.
func TestCommitScheduleStoreCalls(t *testing.T) {
	t.Run("on the committer", testCommitSchedule)
}

func testCommitSchedule(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{})
	b := NewBinding(m)
	oneKey := func(what string, want ...string) {
		t.Helper()
		wantCalls(t, what, ss.take(), want...)
		if n := inner.Len(tsrTable); n != 0 {
			t.Errorf("%s: %d TSRs after the commit, want none", what, n)
		}
	}

	for round := 0; round < 3; round++ {
		a, c, d := fmt.Sprintf("a%d", round), fmt.Sprintf("c%d", round), fmt.Sprintf("d%d", round)

		// Transactional insert of one key (the load phase): its one
		// create-only put is the commit.
		tctx, _ := b.Start(ctx)
		if err := b.WithTx(tctx).Insert(ctx, "t", a, db.Record{"bal": []byte("100")}); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx, tctx); err != nil {
			t.Fatal(err)
		}
		oneKey("insert", "Put t/"+a)

		// An insert of two keys: create-only prepares with no fetch and
		// the TSR; roll forward and TSR delete.
		tx, _ := m.Begin(ctx)
		for _, k := range []string{c, d} {
			if err := tx.Insert("", "t", k, bal(100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "two-key insert", ss.take(),
			"Put t/"+c, "Put t/"+d, "Put _tsr",
			"Put t/"+c, "Put t/"+d, "Delete _tsr")

		// The CEW read-modify-write: read two accounts, update both.
		// The updates and both prepares are served by the read set.
		tctx, _ = b.Start(ctx)
		view := b.WithTx(tctx)
		for _, k := range []string{a, c} {
			if _, err := view.Read(ctx, "t", k, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := view.Update(ctx, "t", c, db.Record{"bal": []byte("101")}); err != nil {
			t.Fatal(err)
		}
		if err := view.Update(ctx, "t", a, db.Record{"bal": []byte("99")}); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx, tctx); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "read-modify-write", ss.take(),
			"Get t/"+a, "Get t/"+c, // the workload's reads
			"Put t/"+a, "Put t/"+c, // ordered prepare
			"Put _tsr",             // commit point
			"Put t/"+a, "Put t/"+c, // roll forward
			"Delete _tsr")

		// A read-modify-write of one key: the read, then the commit's
		// one put on the version read.
		tctx, _ = b.Start(ctx)
		view = b.WithTx(tctx)
		if _, err := view.Read(ctx, "t", a, nil); err != nil {
			t.Fatal(err)
		}
		if err := view.Update(ctx, "t", a, db.Record{"bal": []byte("98")}); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx, tctx); err != nil {
			t.Fatal(err)
		}
		oneKey("one-key read-modify-write", "Get t/"+a, "Put t/"+a)

		// A blind write never read the key, so it fetches the version its
		// conditional write expects — and, prepared, the previous image
		// its prepared record must carry.
		tx, _ = m.Begin(ctx)
		if err := tx.Write("", "t", a, bal(7)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		oneKey("blind write", "Get t/"+a, "Put t/"+a)
		tx, _ = m.Begin(ctx)
		for _, k := range []string{c, d} {
			if err := tx.Write("", "t", k, bal(7)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "two-key blind write", ss.take(),
			"Get t/"+c, "Put t/"+c, "Get t/"+d, "Put t/"+d, "Put _tsr",
			"Put t/"+c, "Put t/"+d, "Delete _tsr")

		// Read-only: one fetch however often the key is read, and a
		// trivial commit.
		tx, _ = m.Begin(ctx)
		for i := 0; i < 3; i++ {
			if f, err := tx.Read(ctx, "", "t", a); err != nil || getBal(t, f) != 7 {
				t.Fatalf("read %d = %v, %v", i, f, err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		wantCalls(t, "read-only", ss.take(), "Get t/"+a)

		// A blind delete of one key fetches the version its conditional
		// delete expects.
		tx, _ = m.Begin(ctx)
		if err := tx.Delete("", "t", a); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		oneKey("delete", "Get t/"+a, "Delete t/"+a)
		if _, err := inner.Get("t", a); !errors.Is(err, kvstore.ErrNotFound) {
			t.Errorf("%s after its delete committed: %v, want ErrNotFound", a, err)
		}
	}
}

// TestReadAroundThenWriteConflicts is the trap in the read set: T2
// reads k around T1's in-flight prepare, so the version T2 holds is
// that of T1's PREPARED record. If that entry licensed T2's
// conditional put, T2 would overwrite the prepare. It must conflict —
// decided from the read set, without touching the store — and T1 must
// still commit over an untouched prepared image. T1 also inserts a
// second key, l, so that it prepares: a one-key commit has no prepare
// to read around.
func TestReadAroundThenWriteConflicts(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: time.Hour})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}

	ran := false
	// T2 runs inside T1's commit, between its prepares and its TSR.
	ss.before = func(op, table, _ string, _ map[string][]byte) error {
		if ran || op != "Put" || table != tsrTable {
			return nil
		}
		ran = true
		held, err := inner.Get("t", "k")
		if err != nil || !isPrepared(held) {
			t.Fatalf("T1 not prepared on k: %+v, %v", held, err)
		}

		t2, _ := m.Begin(ctx)
		f, err := t2.Read(ctx, "", "t", "k")
		if err != nil || getBal(t, f) != 1 {
			t.Fatalf("T2 read-around = %v, %v; want the previous image 1", f, err)
		}
		if err := t2.Write("", "t", "k", bal(getBal(t, f)+10)); err != nil {
			t.Fatal(err)
		}
		ss.take()
		if err := t2.Commit(ctx); !errors.Is(err, ErrConflict) {
			t.Errorf("T2 commit = %v, want ErrConflict", err)
		}
		wantCalls(t, "T2's conflicting commit", ss.take())

		after, err := inner.Get("t", "k")
		if err != nil || after.Version != held.Version || !bytes.Equal(after.Image(), held.Image()) {
			t.Errorf("T1's prepared image disturbed:\n before v%d %q\n after  v%d %q (%v)", held.Version, held.Image(), after.Version, after.Image(), err)
		}
		return nil
	}

	t1, _ := m.Begin(ctx)
	if _, err := t1.Read(ctx, "", "t", "k"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write("", "t", "k", bal(500)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Insert("", "t", "l", bal(0)); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); err != nil {
		t.Fatalf("T1 commit = %v", err)
	}
	if !ran {
		t.Fatal("T2 never ran")
	}
	rec, err := inner.Get("t", "k")
	if err != nil || isPrepared(rec) || string(rec.Field("balance")) != "500" {
		t.Errorf("final record = %+v, %v; want clean balance 500", rec, err)
	}
}

// TestCachedReadGoesStale: T reads k, another transaction commits k,
// then T updates k through the binding. The update is served from the
// read set (no second fetch to notice the change), so the stale image
// must be caught by the prepare's conditional put — a conflict at
// commit, never a lost update.
func TestCachedReadGoesStale(t *testing.T) {
	ctx := context.Background()
	m, _, inner := newScriptManager(t, Options{})
	b := NewBinding(m)
	if err := b.Insert(ctx, "t", "k", db.Record{"n": []byte("0"), "other": []byte("x")}); err != nil {
		t.Fatal(err)
	}

	tctx, _ := b.Start(ctx)
	view := b.WithTx(tctx)
	if _, err := view.Read(ctx, "t", "k", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(ctx, "t", "k", db.Record{"n": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := view.Update(ctx, "t", "k", db.Record{"n": []byte("stale+1")}); err != nil {
		t.Fatalf("update over a cached read = %v; the conflict belongs to commit", err)
	}
	if err := b.Commit(ctx, tctx); !errors.Is(err, db.ErrAborted) {
		t.Fatalf("commit over a stale read = %v, want ErrAborted", err)
	}
	rec, err := inner.Get("t", "k")
	if err != nil || isPrepared(rec) || string(rec.Field("n")) != "1" {
		t.Errorf("record = %+v, %v; want the other transaction's clean n=1", rec, err)
	}
}

// TestInsertOverDeadPreparedInsert: the create-only prepare finds the
// key occupied by a crashed writer's prepared insert; the mismatch
// sends it down the fetch-and-resolve path, which rolls the dead
// prepare back, and the insert then succeeds — prepared and finished
// when the transaction inserts a second key too, and as the commit's
// one write when it inserts only this one.
func TestInsertOverDeadPreparedInsert(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: 10 * time.Millisecond})
	deadInsert := func(key string) {
		t.Helper()
		dead := map[string][]byte{
			"balance":     []byte("666"),
			metaState:     []byte("P"),
			metaID:        []byte("tdead-" + key),
			metaCoord:     []byte("local"),
			metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now()-int64(time.Second), 10)),
			metaPrev:      nil,
		}
		if _, err := inner.PutIfVersion("t", key, dead, kvstore.MustNotExist); err != nil {
			t.Fatal(err)
		}
	}
	// The fallback: create-only, occupied; fetch a prepared record; no
	// TSR, and the same prepared record still there, past the timeout;
	// roll the dead insert back; gone; put.
	fallback := func(key string) []string {
		return []string{"Put t/" + key, "Get t/" + key, "Get _tsr", "Get t/" + key, "Delete t/" + key, "Get t/" + key, "Put t/" + key}
	}
	wantClean := func(key string, balance string) {
		t.Helper()
		rec, err := inner.Get("t", key)
		if err != nil || isPrepared(rec) || string(rec.Field("balance")) != balance {
			t.Errorf("%s = %+v, %v; want clean balance %s", key, rec, err, balance)
		}
	}

	deadInsert("k")
	tx, _ := m.Begin(ctx)
	if err := tx.Insert("", "t", "k", bal(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("", "t", "l", bal(6)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("insert over a dead prepared insert = %v", err)
	}
	wantCalls(t, "insert via the fallback", ss.take(),
		append(fallback("k"), "Put t/l", "Put _tsr", "Put t/k", "Put t/l", "Delete _tsr")...)
	wantClean("k", "5")
	wantClean("l", "6")
	if _, _, _, recovered := m.Stats(); recovered != 1 {
		t.Errorf("recovered = %d, want 1", recovered)
	}

	deadInsert("m")
	tx, _ = m.Begin(ctx)
	if err := tx.Insert("", "t", "m", bal(7)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("one-key insert over a dead prepared insert = %v", err)
	}
	wantCalls(t, "one-key insert via the fallback", ss.take(), fallback("m")...)
	wantClean("m", "7")
	if _, _, _, recovered := m.Stats(); recovered != 2 {
		t.Errorf("recovered = %d, want 2", recovered)
	}

	// And an insert over a live committed record still conflicts.
	tx, _ = m.Begin(ctx)
	tx.Insert("", "t", "k", bal(6))
	if err := tx.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Errorf("insert of existing key = %v, want ErrConflict", err)
	}
}

// TestReadLockRewritesCachedImage: under SerializableReads a key read
// but not written is locked by re-writing the image the transaction
// read — taken from the read set, not fetched again.
func TestReadLockRewritesCachedImage(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{SerializableReads: true})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "x", map[string][]byte{"balance": []byte("1"), "note": []byte("keep")}); err != nil {
			return err
		}
		return tx.Insert("", "t", "y", bal(1))
	}); err != nil {
		t.Fatal(err)
	}
	before, _ := inner.Get("t", "x")
	ss.take()

	tx, _ := m.Begin(ctx)
	fx, err := tx.Read(ctx, "", "t", "x")
	if err != nil {
		t.Fatal(err)
	}
	fx["note"][0] = 'X' // the caller owns what Read returned
	fy, err := tx.Read(ctx, "", "t", "y")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("", "t", "y", bal(getBal(t, fx)+getBal(t, fy))); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	wantCalls(t, "serializable commit", ss.take(),
		"Get t/x", "Get t/y",
		"Put t/x", "Put t/y", "Put _tsr", "Put t/x", "Put t/y", "Delete _tsr")
	after, err := inner.Get("t", "x")
	if err != nil || !bytes.Equal(after.Image(), before.Image()) {
		t.Errorf("read-locked record = %q, %v; want the image read, %q", after.Image(), err, before.Image())
	}
	if after.Version != before.Version+2 {
		t.Errorf("read-locked version = %d, want %d (prepare + roll forward)", after.Version, before.Version+2)
	}
}

// TestCoordinatorAgreesUnderUnorderedPrepare: with the ordered-prepare
// ablation on, the write set is prepared in arbitrary order, and the
// store the TSR is written to must still be the one the prepared
// records name. The committer here dies right after its commit point
// (its roll-forwards and TSR delete are dropped), so readers resolve
// the prepared records through the TSR: looking in the wrong store
// they would read around a COMMITTED write and later roll it back.
func TestCoordinatorAgreesUnderUnorderedPrepare(t *testing.T) {
	ctx := context.Background()
	s1, s2 := kvstore.OpenMemory(), kvstore.OpenMemory()
	defer s1.Close()
	defer s2.Close()
	alpha := &scriptStore{Store: NewLocalStore("alpha", s1)}
	beta := &scriptStore{Store: NewLocalStore("beta", s2)}
	m, err := NewManager(Options{DisableOrderedPrepare: true, RecoveryTimeout: time.Hour}, alpha, beta)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("alpha", "t", "a", bal(0)); err != nil {
			return err
		}
		return tx.Insert("beta", "t", "b", bal(0))
	}); err != nil {
		t.Fatal(err)
	}

	var dying bool
	crashAfterCommitPoint := func(op, table, _ string, fields map[string][]byte) error {
		if dying && afterCommitPoint(op, table, fields) {
			return errors.New("committer died")
		}
		return nil
	}
	alpha.before, beta.before = crashAfterCommitPoint, crashAfterCommitPoint

	for i := int64(1); i <= 50; i++ {
		tx, _ := m.Begin(ctx)
		tx.Write("alpha", "t", "a", bal(i))
		tx.Write("beta", "t", "b", bal(i))
		dying = true
		err := tx.Commit(ctx)
		dying = false
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
			for _, k := range [][2]string{{"alpha", "a"}, {"beta", "b"}} {
				f, err := tx.Read(ctx, k[0], "t", k[1])
				if err != nil {
					return err
				}
				if got := getBal(t, f); got != i {
					t.Fatalf("after commit %d a reader saw %s/%s = %d: it missed the TSR", i, k[0], k[1], got)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// stepClock is a Clock a test advances by hand.
type stepClock struct{ now int64 }

func (c *stepClock) Now() int64 { c.now++; return c.now }

// TestFailedRollForwardKeepsTSR: the committer's second roll-forward
// put fails (node down, deadline on the detached context). The TSR is
// then the only evidence that the still-prepared record is committed,
// so it must stay: a reader arriving after the recovery timeout finds
// it and rolls the record forward. Deleting it — what Commit used to do
// whatever the roll-forwards returned — sends that reader down "TSR
// absent, writer presumed dead" and it rolls back an acknowledged
// commit.
func TestFailedRollForwardKeepsTSR(t *testing.T) {
	ctx := context.Background()
	clock := &stepClock{now: int64(time.Hour)}
	sink := &history.MemorySink{}
	reg := obs.NewRegistry()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: time.Second, Clock: clock, History: sink, Metrics: reg})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "a", bal(100)); err != nil {
			return err
		}
		return tx.Insert("", "t", "b", bal(100))
	}); err != nil {
		t.Fatal(err)
	}

	rollForwards := 0
	ss.before = func(op, table, _ string, fields map[string][]byte) error {
		if isRollForward(op, table, fields) {
			if rollForwards++; rollForwards == 2 {
				return errors.New("node down")
			}
		}
		return nil
	}
	tx, _ := m.Begin(ctx)
	for _, k := range []string{"a", "b"} {
		if _, err := tx.Read(ctx, "", "t", k); err != nil {
			t.Fatal(err)
		}
	}
	tx.Write("", "t", "a", bal(90))
	tx.Write("", "t", "b", bal(110))
	ss.take()
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit = %v; the TSR was written, so it is committed", err)
	}
	wantCalls(t, "commit with a failed roll-forward", ss.take(),
		"Put t/a", "Put t/b", "Put _tsr", "Put t/a", "Put t/b") // and no "Delete _tsr"
	ss.before = nil
	if n := inner.Len(tsrTable); n != 1 {
		t.Errorf("%d TSRs after a failed roll-forward, want the committer's own left in place", n)
	}
	if got := reg.Counter("txn_tsr_left_total").Value(); got != 1 {
		t.Errorf("txn_tsr_left_total = %d, want 1", got)
	}

	// Long after the recovery timeout, a fresh reader.
	clock.now += int64(time.Minute)
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for k, want := range map[string]int64{"a": 90, "b": 110} {
			f, err := tx.Read(ctx, "", "t", k)
			if err != nil {
				return err
			}
			if got := getBal(t, f); got != want {
				t.Errorf("reader saw %s = %d, want the committed %d", k, got, want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rec, err := inner.Get("t", "b"); err != nil || isPrepared(rec) {
		t.Errorf("b after the reader = %+v, %v; want rolled forward", rec, err)
	}
	if res := history.Check(sink.Records()); !res.Serializable {
		t.Errorf("history not certified: %s", res.Summary())
	}

	// The TSR the committer left is Vacuum's to collect.
	if removed, _, err := m.Vacuum(ctx); err != nil || removed != 1 || inner.Len(tsrTable) != 0 {
		t.Errorf("vacuum removed %d TSRs (%v), %d left; want the one left behind gone", removed, err, inner.Len(tsrTable))
	}
}

// TestFailedTSRLookupIsNotAbsence: a committed transaction's record is
// still prepared, past the recovery timeout, and the one lookup of its
// TSR fails — the coordinating node is unreachable, not empty. Reading
// that failure as "no TSR" sends the reader down "writer presumed dead"
// and it rolls back a committed write. The read must fail instead and
// leave the record alone; the next reader, with the coordinator back,
// finishes it from the TSR.
func TestFailedTSRLookupIsNotAbsence(t *testing.T) {
	ctx := context.Background()
	clock := &stepClock{now: time.Now().Add(time.Hour).UnixNano()} // every prepare is an hour old
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: time.Second, Clock: clock})
	if _, err := inner.Insert("t", "k", bal(100)); err != nil {
		t.Fatal(err)
	}
	installCrashedCommit(t, inner, []string{"k", "l"}, time.Minute)

	unreachable := errors.New("coordinator unreachable")
	failed := false
	ss.before = func(op, table, _ string, _ map[string][]byte) error {
		if op == "Get" && table == tsrTable && !failed {
			failed = true
			return unreachable
		}
		return nil
	}
	tx, _ := m.Begin(ctx)
	if f, err := tx.Read(ctx, "", "t", "k"); !errors.Is(err, unreachable) {
		t.Errorf("read with the TSR lookup failing = %v, %v; want the lookup's error", f, err)
	}
	wantCalls(t, "read with the TSR lookup failing", ss.take(), "Get t/k", "Get _tsr")
	if rec, err := inner.Get("t", "k"); err != nil || !isPrepared(rec) {
		t.Errorf("record after the failed lookup = %+v, %v; want it still prepared", rec, err)
	}

	tx, _ = m.Begin(ctx)
	if f, err := tx.Read(ctx, "", "t", "k"); err != nil || getBal(t, f) != 777 {
		t.Errorf("read with the coordinator back = %v, %v; want the committed 777", f, err)
	}
}

// TestFinishBetweenFetchAndTSRLookup: a reader fetches a record its
// writer has prepared and committed, and before the reader looks the
// TSR up the writer's finish completes — both roll-forwards and the
// TSR delete. "No TSR" then means "finished", not "in flight": reading
// around returns the image the commit replaced, and a client that read
// its own acknowledged transfer that way would then conflict on it. The
// record tells the two apart, at the price of one more get.
func TestFinishBetweenFetchAndTSRLookup(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: time.Hour})
	for _, k := range []string{"a", "b"} {
		if _, err := inner.Insert("t", k, bal(100)); err != nil {
			t.Fatal(err)
		}
	}
	// A writer past its commit point whose finish has yet to run.
	installCrashedCommit(t, inner, []string{"a", "b"}, 0)
	finished := false
	ss.before = func(op, table, txnID string, _ map[string][]byte) error {
		if op != "Get" || table != tsrTable || finished {
			return nil
		}
		finished = true
		for _, k := range []string{"a", "b"} {
			cur, err := inner.Get("t", k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inner.PutIfVersion("t", k, userFields(cur.FieldMap()), cur.Version); err != nil {
				t.Fatal(err)
			}
		}
		return inner.Delete(tsrTable, txnID)
	}
	r, err := m.readResolved(ctx, ss, "t", "a")
	if err != nil || getBal(t, r.fieldMap()) != 777 || !r.clean {
		t.Errorf("read overtaken by the finish = %q clean=%v, %v; want the committed 777, clean", r.fieldMap(), r.clean, err)
	}
	wantCalls(t, "read overtaken by the finish", ss.take(), "Get t/a", "Get _tsr", "Get t/a")

	// The in-flight case is unchanged: the record is still prepared at
	// the same version after the second get, so it is read around.
	// Its writer, which writes b and a new key c, dies at its commit
	// point: the TSR put never lands.
	cur, err := inner.Get("t", "b")
	if err != nil {
		t.Fatal(err)
	}
	atCommitPoint := func(op, table string, _ map[string][]byte) bool { return op == "Put" && table == tsrTable }
	if err := crashWriter(t, inner, []string{"b", "c"}, 5, 0, atCommitPoint); err == nil {
		t.Fatal("a writer that died before its TSR landed reported a commit")
	}
	r, err = m.readResolved(ctx, ss, "t", "b")
	if err != nil || getBal(t, r.fieldMap()) != 777 || r.clean || r.ver != cur.Version+1 {
		t.Errorf("read around an in-flight writer = %q v%d clean=%v, %v; want the previous 777 under the prepared v%d, not clean",
			r.fieldMap(), r.ver, r.clean, err, cur.Version+1)
	}
	wantCalls(t, "read around an in-flight writer", ss.take(), "Get t/b", "Get _tsr", "Get t/b")
}

// TestOneKeyCommitRacesTwoPhaseCommit: a one-key commit and a two-key
// commit both read-modify-write k. However their store calls
// interleave, exactly one commits, the other returns ErrConflict, and
// no record is left prepared: the one-key write lands before the
// two-key prepare (which then fails its put on the version it read), or
// while the two-key commit holds k prepared (and then fails its own),
// or the two race on goroutines of their own. Either way the one-key
// commit makes its one put and nothing after it.
func TestOneKeyCommitRacesTwoPhaseCommit(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: time.Hour})
	for _, k := range []string{"k", "l"} {
		if _, err := inner.Insert("t", k, bal(0)); err != nil {
			t.Fatal(err)
		}
	}
	// rmw reads keys and buffers each one's increment.
	rmw := func(keys ...string) *Txn {
		t.Helper()
		tx, _ := m.Begin(ctx)
		for _, k := range keys {
			f, err := tx.Read(ctx, "", "t", k)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Write("", "t", k, bal(getBal(t, f)+1)); err != nil {
				t.Fatal(err)
			}
		}
		return tx
	}
	// blind buffers a write of k without reading it.
	blind := func() *Txn {
		tx, _ := m.Begin(ctx)
		if err := tx.Write("", "t", "k", bal(-1)); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// exactlyOne checks one of the two outcomes is a commit and the
	// other a conflict, that nothing is left prepared, and that k holds
	// the winner's write.
	exactlyOne := func(what string, one, two error, wantK int64) {
		t.Helper()
		switch {
		case one == nil && errors.Is(two, ErrConflict), two == nil && errors.Is(one, ErrConflict):
		default:
			t.Errorf("%s: one-key commit = %v, two-key commit = %v; want exactly one ErrConflict", what, one, two)
		}
		wantNoDebris(t, inner, "t")
		rec, err := inner.Get("t", "k")
		if err != nil || string(rec.Field("balance")) != strconv.FormatInt(wantK, 10) {
			t.Errorf("%s: k = %+v, %v; want balance %d", what, rec, err, wantK)
		}
	}
	// duringTwoPhase runs fn inside the next two-key commit, between its
	// prepares and its TSR.
	duringTwoPhase := func(fn func()) {
		ss.before = func(op, table, _ string, _ map[string][]byte) error {
			if op == "Put" && table == tsrTable {
				ss.before = nil
				fn()
			}
			return nil
		}
	}

	two, one := rmw("k", "l"), rmw("k")
	ss.take()
	oneErr := one.Commit(ctx)
	wantCalls(t, "one-key commit before the two-key prepares", ss.take(), "Put t/k")
	exactlyOne("one-key commit before the two-key prepares", oneErr, two.Commit(ctx), 1)

	one, two = rmw("k"), rmw("k", "l")
	duringTwoPhase(func() {
		ss.take()
		oneErr = one.Commit(ctx)
		wantCalls(t, "one-key commit over a two-key prepare", ss.take(), "Put t/k")
	})
	twoErr := two.Commit(ctx)
	exactlyOne("one-key commit over a two-key prepare", oneErr, twoErr, 2)

	one, two = blind(), rmw("k", "l")
	duringTwoPhase(func() { oneErr = one.Commit(ctx) })
	twoErr = two.Commit(ctx)
	exactlyOne("blind one-key write over a two-key prepare", oneErr, twoErr, 3)

	for i := 0; i < 50; i++ {
		cur, err := inner.Get("t", "k")
		if err != nil {
			t.Fatal(err)
		}
		before, _ := strconv.ParseInt(string(cur.Field("balance")), 10, 64)
		one, two := rmw("k"), rmw("k", "l")
		var wg sync.WaitGroup
		var oneErr, twoErr error
		wg.Add(2)
		go func() { defer wg.Done(); oneErr = one.Commit(ctx) }()
		go func() { defer wg.Done(); twoErr = two.Commit(ctx) }()
		wg.Wait()
		exactlyOne(fmt.Sprintf("race %d", i), oneErr, twoErr, before+1)
	}
}

// TestOneKeyHistoryVersions: the history record of a one-key commit
// carries the version its one write installed — the store's reply to a
// put, and for a delete the tombstone's — so a key inserted, updated,
// deleted and inserted again by one-key transactions reads v1, v2, v3
// (the tombstone) and v4, each one past the last.
func TestOneKeyHistoryVersions(t *testing.T) {
	ctx := context.Background()
	sink := &history.MemorySink{}
	m, _, inner := newScriptManager(t, Options{History: sink})
	commit := func(fn func(tx *Txn) error) {
		t.Helper()
		if err := m.RunInTxn(ctx, 0, fn); err != nil {
			t.Fatal(err)
		}
	}
	written := func(what, kind string, want uint64) {
		t.Helper()
		recs := sink.Records()
		var got []history.Op
		for _, op := range recs[len(recs)-1].Ops {
			if op.Kind != history.OpRead {
				got = append(got, op)
			}
		}
		if len(got) != 1 || got[0].Kind != kind || got[0].Ver != want {
			t.Errorf("%s: history writes %+v; want one %q of k at v%d", what, got, kind, want)
		}
		if kind == history.OpDelete {
			return
		}
		if rec, err := inner.Get("t", "k"); err != nil || rec.Version != want {
			t.Errorf("%s: k = %+v, %v; want the store at v%d", what, rec, err, want)
		}
	}

	commit(func(tx *Txn) error { return tx.Insert("", "t", "k", bal(1)) })
	written("insert", history.OpWrite, 1)
	commit(func(tx *Txn) error {
		f, err := tx.Read(ctx, "", "t", "k")
		if err != nil {
			return err
		}
		return tx.Write("", "t", "k", bal(getBal(t, f)+1))
	})
	written("read-modify-write", history.OpWrite, 2)
	commit(func(tx *Txn) error { return tx.Delete("", "t", "k") })
	written("delete", history.OpDelete, 3)
	commit(func(tx *Txn) error { return tx.Insert("", "t", "k", bal(4)) })
	written("insert after the delete", history.OpWrite, 4)
	if res := history.Check(sink.Records()); !res.Serializable {
		t.Errorf("history not certified: %s", res.Summary())
	}
}

// TestSerializableReadLockKeepsTwoPhase: under SerializableReads the
// one-key count is taken after the read-locks join the write set. A
// transaction that reads and writes k alone commits with its one put; one
// that reads k and writes another key, j, holds two keys — k's
// read-lock and j — and takes the two-phase schedule.
func TestSerializableReadLockKeepsTwoPhase(t *testing.T) {
	ctx := context.Background()
	m, ss, _ := newScriptManager(t, Options{SerializableReads: true})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Insert("", "t", "k", bal(1)) }); err != nil {
		t.Fatal(err)
	}
	ss.take()

	tx, _ := m.Begin(ctx)
	f, err := tx.Read(ctx, "", "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("", "t", "k", bal(getBal(t, f)+1))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	wantCalls(t, "read and write k", ss.take(), "Get t/k", "Put t/k")

	tx, _ = m.Begin(ctx)
	if f, err = tx.Read(ctx, "", "t", "k"); err != nil {
		t.Fatal(err)
	}
	tx.Insert("", "t", "j", bal(getBal(t, f)))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	wantCalls(t, "read k, write j", ss.take(),
		"Get t/k",
		"Put t/j", "Put t/k", "Put _tsr", // j's prepare, k's read-lock, the commit point
		"Put t/j", "Put t/k", "Delete _tsr")
}
