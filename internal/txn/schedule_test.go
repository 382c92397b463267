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
// of the call, on the goroutine making it (the committer's, or a
// finish's), and a non-nil error from it drops the call, which fails
// with it. A call is logged when before returns, so one that before
// holds back is not in the log yet. With onCaller set it reports that
// its calls run on the caller (RunsOnCaller), as the store it wraps
// does; a manager over it then finishes each commit on the committer.
type scriptStore struct {
	Store
	onCaller bool
	mu       sync.Mutex
	calls    []string
	before   func(op, table, key string, fields map[string][]byte) error
}

func (s *scriptStore) RunsOnCaller() bool { return s.onCaller }

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

// flush waits for the manager's outstanding finishes.
func flush(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
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
// so the two lists below ARE the protocol's cost — the calls made when
// Commit returns are what the caller waited for, the calls after Flush
// are the finish that ran behind it. A transaction asks the store only
// for what it does not hold — the repeated runs check the counts repeat
// exactly. Over a store whose calls run on the caller the finish makes
// the same calls before Commit returns: all 3n + 2 are made by then,
// and none behind.
func TestCommitScheduleStoreCalls(t *testing.T) {
	t.Run("behind", func(t *testing.T) { testCommitSchedule(t, false) })
	t.Run("on the committer", func(t *testing.T) { testCommitSchedule(t, true) })
}

func testCommitSchedule(t *testing.T, onCaller bool) {
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	ss := &scriptStore{Store: NewLocalStore("local", inner), onCaller: onCaller}
	m, err := NewManager(Options{}, ss)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBinding(m)

	// A deferred finish opens with a roll-forward put; holding that back
	// until the test has looked makes "when Commit returns" a fixed list.
	// A finish on the committer is over by then, and is not held.
	var hold chan struct{}
	if !onCaller {
		ss.before = func(op, table, _ string, fields map[string][]byte) error {
			if isRollForward(op, table, fields) {
				<-hold
			}
			return nil
		}
	}
	// committed checks the calls the commit just made the caller wait
	// for, then lets the finish go and checks the calls it made.
	committed := func(what string, blocking, behind []string) {
		t.Helper()
		if onCaller {
			wantCalls(t, what+", when Commit returns", ss.take(), append(blocking, behind...)...)
			flush(t, m)
			wantCalls(t, what+", behind it", ss.take())
			return
		}
		wantCalls(t, what+", when Commit returns", ss.take(), blocking...)
		close(hold)
		flush(t, m)
		wantCalls(t, what+", behind it", ss.take(), behind...)
	}

	for round := 0; round < 3; round++ {
		a, c := fmt.Sprintf("a%d", round), fmt.Sprintf("c%d", round)

		// Transactional insert (the load phase): create-only prepare
		// with no fetch and the TSR; roll forward and TSR delete behind.
		hold = make(chan struct{})
		tctx, _ := b.Start(ctx)
		if err := b.WithTx(tctx).Insert(ctx, "t", a, db.Record{"bal": []byte("100")}); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(ctx, tctx); err != nil {
			t.Fatal(err)
		}
		committed("insert",
			[]string{"Put t/" + a, "Put _tsr"},
			[]string{"Put t/" + a, "Delete _tsr"})
		hold = make(chan struct{})
		if err := b.Insert(ctx, "t", c, db.Record{"bal": []byte("100")}); err != nil {
			t.Fatal(err)
		}
		close(hold)
		flush(t, m)
		ss.take()

		// The CEW read-modify-write: read two accounts, update both.
		// The updates and both prepares are served by the read set.
		hold = make(chan struct{})
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
		committed("read-modify-write",
			[]string{
				"Get t/" + a, "Get t/" + c, // the workload's reads
				"Put t/" + a, "Put t/" + c, // ordered prepare
				"Put _tsr", // commit point
			},
			[]string{
				"Put t/" + a, "Put t/" + c, // roll forward
				"Delete _tsr",
			})

		// A blind write never read the key, so prepare still fetches
		// the previous image it must carry.
		hold = make(chan struct{})
		tx, _ := m.Begin(ctx)
		if err := tx.Write("", "t", a, bal(7)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		committed("blind write",
			[]string{"Get t/" + a, "Put t/" + a, "Put _tsr"},
			[]string{"Put t/" + a, "Delete _tsr"})

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
	}
}

// TestReadAroundThenWriteConflicts is the trap in the read set: T2
// reads k around T1's in-flight prepare, so the version T2 holds is
// that of T1's PREPARED record. If that entry licensed T2's
// conditional put, T2 would overwrite the prepare. It must conflict —
// decided from the read set, without touching the store — and T1 must
// still commit over an untouched prepared image.
func TestReadAroundThenWriteConflicts(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: time.Hour})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}
	flush(t, m)

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
	if err := t1.Commit(ctx); err != nil {
		t.Fatalf("T1 commit = %v", err)
	}
	if !ran {
		t.Fatal("T2 never ran")
	}
	flush(t, m)
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
	flush(t, m)
	rec, err := inner.Get("t", "k")
	if err != nil || isPrepared(rec) || string(rec.Field("n")) != "1" {
		t.Errorf("record = %+v, %v; want the other transaction's clean n=1", rec, err)
	}
}

// TestInsertOverDeadPreparedInsert: the create-only prepare finds the
// key occupied by a crashed writer's prepared insert; the mismatch
// sends it down the fetch-and-resolve path, which rolls the dead
// prepare back, and the insert then succeeds.
func TestInsertOverDeadPreparedInsert(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{RecoveryTimeout: 10 * time.Millisecond})
	dead := map[string][]byte{
		"balance":     []byte("666"),
		metaState:     []byte("P"),
		metaID:        []byte("tdead-1"),
		metaCoord:     []byte("local"),
		metaPrepareTS: []byte(strconv.FormatInt(m.opts.Clock.Now()-int64(time.Second), 10)),
		metaPrev:      nil,
	}
	if _, err := inner.PutIfVersion("t", "k", dead, kvstore.MustNotExist); err != nil {
		t.Fatal(err)
	}

	tx, _ := m.Begin(ctx)
	if err := tx.Insert("", "t", "k", bal(5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("insert over a dead prepared insert = %v", err)
	}
	flush(t, m)
	wantCalls(t, "insert via the fallback", ss.take(),
		"Put t/k",    // create-only: occupied
		"Get t/k",    // fetch: a prepared record
		"Get _tsr",   // no TSR...
		"Get t/k",    // ...and the same prepared record still there, past the timeout
		"Delete t/k", // roll the dead insert back
		"Get t/k",    // gone
		"Put t/k", "Put _tsr", "Put t/k", "Delete _tsr")
	rec, err := inner.Get("t", "k")
	if err != nil || isPrepared(rec) || string(rec.Field("balance")) != "5" {
		t.Errorf("record = %+v, %v; want clean balance 5", rec, err)
	}
	if _, _, _, recovered := m.Stats(); recovered != 1 {
		t.Errorf("recovered = %d, want 1", recovered)
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
	flush(t, m)
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
	flush(t, m)
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
	flush(t, m)

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
		flush(t, m) // the finish is where this committer dies
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
	flush(t, m)

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
	flush(t, m)
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
	installCrashedCommit(t, inner, []string{"k"}, time.Minute)

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
	// Its writer dies at its commit point: the TSR put never lands.
	cur, err := inner.Get("t", "b")
	if err != nil {
		t.Fatal(err)
	}
	atCommitPoint := func(op, table string, _ map[string][]byte) bool { return op == "Put" && table == tsrTable }
	if err := crashWriter(t, inner, []string{"b"}, 5, 0, atCommitPoint); err == nil {
		t.Fatal("a writer that died before its TSR landed reported a commit")
	}
	r, err = m.readResolved(ctx, ss, "t", "b")
	if err != nil || getBal(t, r.fieldMap()) != 777 || r.clean || r.ver != cur.Version+1 {
		t.Errorf("read around an in-flight writer = %q v%d clean=%v, %v; want the previous 777 under the prepared v%d, not clean",
			r.fieldMap(), r.ver, r.clean, err, cur.Version+1)
	}
	wantCalls(t, "read around an in-flight writer", ss.take(), "Get t/b", "Get _tsr", "Get t/b")
}
