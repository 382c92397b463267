package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// slowStore makes every call take delay longer: the stand-in for a
// remote backend where a call is a round trip. It spins, yielding,
// where a sleep would round 20 µs up to the timer's granularity.
type slowStore struct {
	Store
	delay time.Duration
	calls atomic.Int64
}

func (s *slowStore) wait() {
	s.calls.Add(1)
	for start := time.Now(); time.Since(start) < s.delay; {
		runtime.Gosched()
	}
}

func (s *slowStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	s.wait()
	return s.Store.Get(ctx, table, key)
}

func (s *slowStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	s.wait()
	return s.Store.Put(ctx, table, key, fields, expect)
}

func (s *slowStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	s.wait()
	return s.Store.Delete(ctx, table, key, expect)
}

// settledGoroutines polls until the goroutine count is back at (or
// under) base: a worker has told its WaitGroup it is done a few
// instructions before it exits.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// wantNoDebris fails when the engine holds a prepared record or a TSR.
func wantNoDebris(t *testing.T, inner *kvstore.Store, table string) {
	t.Helper()
	recs, err := inner.Scan(table, "", -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range recs {
		if isPrepared(kv.Record) {
			t.Errorf("%s left prepared by %s", kv.Key, kv.Record.Field(metaID))
		}
	}
	if n := inner.Len(tsrTable); n != 0 {
		t.Errorf("%d TSRs left behind", n)
	}
}

// TestFinishAccounting: eight committers share one manager over a slow
// store, so each one's reads meet records another has prepared or is
// finishing. Every Begin ends in one commit or abort, the store is clean
// once the committers have returned, the cash is conserved, the history
// certifies, and no goroutine outlives the run.
func TestFinishAccounting(t *testing.T) {
	const (
		workers   = 8
		transfers = 200
		accounts  = 16
		initial   = 1000
	)
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	sink := &history.MemorySink{}
	reg := obs.NewRegistry()
	store := &slowStore{Store: NewLocalStore("local", inner), delay: 20 * time.Microsecond}
	m, err := NewManager(Options{History: sink, Metrics: reg}, store)
	if err != nil {
		t.Fatal(err)
	}
	acct := func(i int) string { return fmt.Sprintf("acct%02d", i) }
	var begun atomic.Int64
	begun.Add(1)
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("", "t", acct(i), bal(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < transfers; i++ {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				err := m.RunInTxn(ctx, 1000, func(tx *Txn) error {
					begun.Add(1)
					var b [2]int64
					for j, k := range []string{acct(from), acct(to)} {
						f, err := tx.Read(ctx, "", "t", k)
						if err != nil {
							return err
						}
						if b[j], err = strconv.ParseInt(string(f["balance"]), 10, 64); err != nil {
							return err
						}
					}
					if err := tx.Write("", "t", acct(from), bal(b[0]-1)); err != nil {
						return err
					}
					return tx.Write("", "t", acct(to), bal(b[1]+1))
				})
				if err != nil {
					t.Errorf("worker %d transfer %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	commits, aborts, conflicts, recovered := m.Stats()
	t.Logf("%d commits, %d aborts (%d prepare conflicts), %d recoveries", commits, aborts, conflicts, recovered)
	if commits+aborts != begun.Load() {
		t.Errorf("commits %d + aborts %d != %d transactions begun", commits, aborts, begun.Load())
	}
	if commits != workers*transfers+1 {
		t.Errorf("%d commits, want %d transfers and the load", commits, workers*transfers)
	}
	if left := reg.Counter("txn_tsr_left_total").Value(); left != 0 {
		t.Errorf("txn_tsr_left_total = %d on a store that never failed", left)
	}
	wantNoDebris(t, inner, "t")
	var cash int64
	recs, _ := inner.Scan("t", "", -1)
	for _, kv := range recs {
		cash += getBal(t, kv.Record.FieldMap())
	}
	if len(recs) != accounts || cash != accounts*initial {
		t.Errorf("%d accounts hold %d, want %d holding %d", len(recs), cash, accounts, accounts*initial)
	}
	if res := history.Check(sink.Records()); !res.Serializable {
		t.Errorf("history not certified: %s", res.Summary())
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("%d goroutines after the run, %d before it", n, baseline)
	}
}

// TestSameThreadReadsItsCommit is the benchmark's client in small: one
// goroutine commits a transfer and at once reads and transfers between
// the same two accounts again. Commit has finished the transfer before
// it returns, so every read returns the committed image, clean — a
// stale read fails the balance check, and a read-around would conflict
// at the next commit — and every round makes the same eight calls, none
// to resolve a record, and nothing is "recovered".
func TestSameThreadReadsItsCommit(t *testing.T) {
	rounds := 10000
	if testing.Short() {
		rounds = 1000
	}
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	store := &slowStore{Store: NewLocalStore("local", inner)}
	m, err := NewManager(Options{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		if err := tx.Insert("", "t", "a", bal(0)); err != nil {
			return err
		}
		return tx.Insert("", "t", "b", bal(0))
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < int64(rounds); i++ {
		tx, _ := m.Begin(ctx)
		for k, want := range map[string]int64{"a": -i, "b": i} {
			f, err := tx.Read(ctx, "", "t", k)
			if err != nil {
				t.Fatalf("round %d: reading %s: %v", i, k, err)
			}
			if got := getBal(t, f); got != want {
				t.Fatalf("round %d: read %s = %d, want the %d just committed", i, k, got, want)
			}
		}
		tx.Write("", "t", "a", bal(-i-1))
		tx.Write("", "t", "b", bal(i+1))
		if err := tx.Commit(ctx); err != nil {
			t.Fatalf("round %d: commit = %v", i, err)
		}
	}
	commits, aborts, conflicts, recovered := m.Stats()
	if commits != int64(rounds)+1 || aborts != 0 || conflicts != 0 || recovered != 0 {
		t.Errorf("%d commits, %d aborts, %d conflicts, %d recoveries; want %d commits and nothing else", commits, aborts, conflicts, recovered, rounds+1)
	}
	if got, want := store.calls.Load(), int64(6+8*rounds); got != want {
		t.Errorf("%d store calls, want %d: six for the two-key insert and eight a round, none to resolve a record", got, want)
	}
	wantNoDebris(t, inner, "t")
}

// TestReaderWaitsForItsManagersFinish: a reader that meets a record
// prepared by a transaction its own manager committed and is still
// finishing — another client thread's commit, held in its roll-forward
// — asks no store about it: the manager knows the outcome. It waits for
// the finish (a reader whose caller gives up meanwhile returns the
// cancellation) and returns the committed image under the version the
// roll-forward gave it. So does a reader still holding the prepared
// record after the finish has ended. The writer inserts a second key,
// l, so that its commit is a two-phase one with a finish to wait for.
func TestReaderWaitsForItsManagersFinish(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{})
	if _, err := inner.Insert("t", "k", bal(1)); err != nil {
		t.Fatal(err)
	}
	tx, _ := m.Begin(ctx)
	if _, err := tx.Read(ctx, "", "t", "k"); err != nil {
		t.Fatal(err)
	}
	tx.Write("", "t", "k", bal(2))
	tx.Insert("", "t", "l", bal(1))
	ss.take()
	rolling, hold := make(chan struct{}), make(chan struct{})
	fetched := make(chan struct{}, 1)
	ss.before = func(op, table, key string, fields map[string][]byte) error {
		switch {
		case isRollForward(op, table, fields) && key == "k":
			close(rolling)
			<-hold
		case op == "Get":
			fetched <- struct{}{}
		}
		return nil
	}
	committed := make(chan error, 1)
	go func() { committed <- tx.Commit(ctx) }()
	<-rolling
	prepared, err := inner.Get("t", "k")
	if err != nil || !isPrepared(prepared) {
		t.Fatalf("k with its finish held = %+v, %v; want it prepared", prepared, err)
	}
	wantCalls(t, "the commit up to its roll-forward", ss.take(), "Put t/k", "Put t/l", "Put _tsr")

	gone, cancel := context.WithCancel(ctx)
	cancel()
	if r, err := m.resolveRecord(gone, ss, "t", "k", prepared); !errors.Is(err, context.Canceled) {
		t.Errorf("reader given up during the held finish = %q, %v; want context.Canceled", r.fieldMap(), err)
	}

	read := make(chan readEntry)
	go func() {
		r, err := m.readResolved(ctx, ss, "t", "k")
		if err != nil {
			t.Error(err)
		}
		read <- r
	}()
	<-fetched
	close(hold)
	r := <-read
	if getBal(t, r.fieldMap()) != 2 || !r.clean || r.ver != prepared.Version+1 {
		t.Errorf("read = %q v%d clean=%v; want the committed 2, clean, at v%d", r.fieldMap(), r.ver, r.clean, prepared.Version+1)
	}
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	calls := ss.take()
	sort.Strings(calls)
	wantCalls(t, "the reader and the finish", calls, "Delete _tsr", "Get t/k", "Put t/k", "Put t/l")
	if cur, err := inner.Get("t", "k"); err != nil || cur.Version != r.ver {
		t.Errorf("k after the finish = %+v, %v; want v%d, what the reader reported", cur, err, r.ver)
	}

	// The finish has ended; a reader that fetched the record before it
	// did resolves it the same way.
	r, err = m.resolveRecord(ctx, ss, "t", "k", prepared)
	if err != nil || getBal(t, r.fieldMap()) != 2 || !r.clean || r.ver != prepared.Version+1 {
		t.Errorf("record held past the finish = %q v%d clean=%v, %v; want the committed 2, clean, at v%d", r.fieldMap(), r.ver, r.clean, err, prepared.Version+1)
	}
	wantCalls(t, "record held past the finish", ss.take())
	if _, _, _, recovered := m.Stats(); recovered != 0 {
		t.Errorf("%d recoveries; no TSR was consulted", recovered)
	}
}

// TestFinishOutlivesItsStore: the benchmark closes its router right
// after the last transaction and never tells the manager, so a store
// can close while a commit's finish runs. The finish must fail quietly:
// Commit reports the commit, nothing panics, the TSR is counted as left
// (a reader of the reopened store finishes from it), and no goroutine
// is left behind. The commit writes two keys: a one-key commit has no
// finish.
func TestFinishOutlivesItsStore(t *testing.T) {
	ctx := context.Background()
	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	m, ss, inner := newScriptManager(t, Options{Metrics: reg})
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}

	ss.before = func(op, table, _ string, fields map[string][]byte) error {
		if isRollForward(op, table, fields) {
			if err := inner.Close(); err != nil {
				t.Error(err)
			}
		}
		return nil
	}
	tx, _ := m.Begin(ctx)
	tx.Write("", "t", "k", bal(2))
	tx.Insert("", "t", "l", bal(1))
	if err := tx.Commit(ctx); err != nil {
		t.Fatalf("commit whose store closed during its finish = %v; the TSR landed, so it is committed", err)
	}
	if got := reg.Counter("txn_tsr_left_total").Value(); got != 1 {
		t.Errorf("txn_tsr_left_total = %d, want the one whose roll-forward met a closed store", got)
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("%d goroutines after the finish failed, %d before", n, baseline)
	}
}

// TestLocalStoreFinishesOnCommitter: each commit makes its own finish
// before it returns, over a LocalStore and over a decorator of one that
// forwards none of its optional methods (plainDecorator, as a tracing or
// metering layer might be). Over either, transfers run by four clients
// at once and then by one; the engine holds no prepared record and no
// TSR afterwards, nor after any of the one client's commits, and no
// goroutine outlives the commit that would have started it.
func TestLocalStoreFinishesOnCommitter(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		testFinishesOnCommitter(t, func(s Store) Store { return s })
	})
	t.Run("decorated", func(t *testing.T) {
		testFinishesOnCommitter(t, func(s Store) Store { return plainDecorator{s} })
	})
}

// plainDecorator wraps a Store and forwards none of its optional
// methods.
type plainDecorator struct{ Store }

func testFinishesOnCommitter(t *testing.T, wrap func(Store) Store) {
	const (
		workers   = 4
		transfers = 100
		accounts  = 8
	)
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	reg := obs.NewRegistry()
	m, err := NewManager(Options{Metrics: reg}, wrap(NewLocalStore("local", inner)))
	if err != nil {
		t.Fatal(err)
	}
	acct := func(i int) string { return fmt.Sprintf("acct%02d", i) }
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("", "t", acct(i), bal(100)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	transfer := func(rng *rand.Rand) error {
		from := rng.Intn(accounts)
		to := (from + 1 + rng.Intn(accounts-1)) % accounts
		return m.RunInTxn(ctx, 1000, func(tx *Txn) error {
			var b [2]int64
			for j, k := range []string{acct(from), acct(to)} {
				f, err := tx.Read(ctx, "", "t", k)
				if err != nil {
					return err
				}
				if b[j], err = strconv.ParseInt(string(f["balance"]), 10, 64); err != nil {
					return err
				}
			}
			if err := tx.Write("", "t", acct(from), bal(b[0]-1)); err != nil {
				return err
			}
			return tx.Write("", "t", acct(to), bal(b[1]+1))
		})
	}

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < transfers; i++ {
				if err := transfer(rng); err != nil {
					t.Errorf("worker %d transfer %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	wantNoDebris(t, inner, "t")
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("%d goroutines once the clients returned, %d before", n, baseline)
	}

	rng := rand.New(rand.NewSource(0))
	for i := 0; i < transfers; i++ {
		if err := transfer(rng); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Fatalf("transfer %d: %d goroutines after Commit returned, %d before", i, n, baseline)
		}
		wantNoDebris(t, inner, "t")
	}
	if commits, _, _, _ := m.Stats(); commits != (workers+1)*transfers+1 {
		t.Errorf("%d commits, want %d transfers and the load", commits, (workers+1)*transfers)
	}
}

// ctxStore logs, for every roll-forward put and TSR delete, whether
// its context carries probeKey's value and whether it is cancelled,
// and runs atRollForward ahead of the first roll-forward.
type ctxStore struct {
	Store
	atRollForward func()
	seen          []string
}

type probeKey struct{}

func (s *ctxStore) note(ctx context.Context, op string) {
	s.seen = append(s.seen, fmt.Sprintf("%s value=%v err=%v", op, ctx.Value(probeKey{}), ctx.Err()))
}

func (s *ctxStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	if isRollForward("Put", table, fields) {
		if s.atRollForward != nil {
			s.atRollForward()
			s.atRollForward = nil
		}
		s.note(ctx, "roll-forward")
	}
	return s.Store.Put(ctx, table, key, fields, expect)
}

func (s *ctxStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	if table == tsrTable {
		s.note(ctx, "TSR delete")
	}
	return s.Store.Delete(ctx, table, key, expect)
}

// TestCommitterFinishKeepsCallerValues: a finish on the committer makes
// its calls under the caller's context values, so a per-caller probe
// of the store calls books them, and without its cancellation: a caller
// that gives up once the TSR has landed leaves a finished commit, not a
// TSR for readers to finish from. The commit writes two keys: a one-key
// commit has no finish.
func TestCommitterFinishKeepsCallerValues(t *testing.T) {
	inner := kvstore.OpenMemory()
	defer inner.Close()
	cs := &ctxStore{Store: NewLocalStore("local", inner)}
	m, err := NewManager(Options{}, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunInTxn(context.Background(), 0, func(tx *Txn) error {
		return tx.Insert("", "t", "k", bal(1))
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), probeKey{}, "caller"))
	defer cancel()
	cs.seen, cs.atRollForward = nil, cancel
	tx, _ := m.Begin(ctx)
	tx.Write("", "t", "k", bal(2))
	tx.Insert("", "t", "l", bal(1))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want := []string{"roll-forward value=caller err=<nil>", "roll-forward value=caller err=<nil>", "TSR delete value=caller err=<nil>"}
	if !reflect.DeepEqual(cs.seen, want) {
		t.Errorf("finish calls\n got %q\nwant %q", cs.seen, want)
	}
	wantNoDebris(t, inner, "t")
}
