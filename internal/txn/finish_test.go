package txn

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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
// where a sleep would round 50 µs up to the timer's granularity. With
// releaseTSRDelete set, a TSR delete also parks until that returns true
// (or tsrDeleteLimit has passed), so finishes stay outstanding for as
// long as a test needs them to.
type slowStore struct {
	Store
	delay            time.Duration
	releaseTSRDelete func() bool
	calls            atomic.Int64
}

// tsrDeleteLimit bounds how long a TSR delete stays parked, so a
// release that never comes fails the test rather than hanging it.
const tsrDeleteLimit = 10 * time.Second

func (s *slowStore) wait(op, table string) {
	s.calls.Add(1)
	for start := time.Now(); time.Since(start) < s.delay; {
		runtime.Gosched()
	}
	if op == "Delete" && table == tsrTable && s.releaseTSRDelete != nil {
		for start := time.Now(); !s.releaseTSRDelete() && time.Since(start) < tsrDeleteLimit; {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func (s *slowStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	s.wait("Get", table)
	return s.Store.Get(ctx, table, key)
}

func (s *slowStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	s.wait("Put", table)
	return s.Store.Put(ctx, table, key, fields, expect)
}

func (s *slowStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	s.wait("Delete", table)
	return s.Store.Delete(ctx, table, key, expect)
}

// settledGoroutines polls until the goroutine count is back at (or
// under) base: a finish goroutine has told Flush it is done a few
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

// TestFinishAccounting drives the deferred finish past its bound: the
// call that ends a background finish (the TSR delete) parks until a
// finish has run inline, so eight committers outrun their finishes
// until maxPendingFinishes are outstanding — by construction, however
// slow the schedule — and the next commit runs its own. Whatever ran where, every Begin ends in one commit or abort, Flush leaves the
// store clean, the cash is conserved, the history certifies, and no
// goroutine outlives the run.
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
	inlineFinishes := reg.Counter("txn_finish_inline_total")
	store := &slowStore{
		Store:            NewLocalStore("local", inner),
		delay:            20 * time.Microsecond,
		releaseTSRDelete: func() bool { return inlineFinishes.Value() > 0 },
	}
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
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	commits, aborts, conflicts, recovered := m.Stats()
	inline := reg.Counter("txn_finish_inline_total").Value()
	t.Logf("%d commits, %d aborts (%d prepare conflicts), %d recoveries, %d finishes ran inline", commits, aborts, conflicts, recovered, inline)
	if commits+aborts != begun.Load() {
		t.Errorf("commits %d + aborts %d != %d transactions begun", commits, aborts, begun.Load())
	}
	if commits != workers*transfers+1 {
		t.Errorf("%d commits, want %d transfers and the load", commits, workers*transfers)
	}
	if inline == 0 {
		t.Errorf("no finish ran inline: the store was not slow enough to reach the bound of %d", maxPendingFinishes)
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
		t.Errorf("%d goroutines after Flush, %d before the run", n, baseline)
	}
}

// TestSameThreadReadsItsCommit is the benchmark's client in small: one
// goroutine commits a transfer and at once reads and transfers between
// the same two accounts again, while the finish of the commit before
// is still making its round trips. Each read lands somewhere in that
// finish — record prepared with its TSR, one record forward and one
// not, both forward and the TSR just gone — and every one of them must
// return the committed image, clean: a stale read fails the balance
// check, and a read-around would conflict at the next commit. A read
// that meets a prepared record waits for its own manager's finish
// rather than resolve it through the store, so the round makes the same
// eight calls wherever the read landed, and nothing is "recovered".
func TestSameThreadReadsItsCommit(t *testing.T) {
	rounds := 10000
	if testing.Short() {
		rounds = 1000
	}
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	store := &slowStore{Store: NewLocalStore("local", inner), delay: 50 * time.Microsecond}
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
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
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
// finishing asks no store about it — the manager knows the outcome. It
// waits for the finish and returns the committed image under the
// version the roll-forward gave it. So does a reader still holding the
// prepared record after the finish has ended.
func TestReaderWaitsForItsManagersFinish(t *testing.T) {
	ctx := context.Background()
	m, ss, inner := newScriptManager(t, Options{})
	if _, err := inner.Insert("t", "k", bal(1)); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	ss.before = func(op, table, _ string, fields map[string][]byte) error {
		if isRollForward(op, table, fields) {
			<-hold
		}
		return nil
	}
	tx, _ := m.Begin(ctx)
	tx.Write("", "t", "k", bal(2))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	prepared, err := inner.Get("t", "k")
	if err != nil || !isPrepared(prepared) {
		t.Fatalf("k with its finish held = %+v, %v; want it prepared", prepared, err)
	}
	ss.take()

	read := make(chan readEntry)
	go func() {
		r, err := m.readResolved(ctx, ss, "t", "k")
		if err != nil {
			t.Error(err)
		}
		read <- r
	}()
	select {
	case r := <-read:
		t.Fatalf("read returned %q while the finish was held", r.fieldMap())
	case <-time.After(20 * time.Millisecond):
	}
	wantCalls(t, "reader, finish held", ss.take(), "Get t/k")
	close(hold)
	r := <-read
	if getBal(t, r.fieldMap()) != 2 || !r.clean || r.ver != prepared.Version+1 {
		t.Errorf("read = %q v%d clean=%v; want the committed 2, clean, at v%d", r.fieldMap(), r.ver, r.clean, prepared.Version+1)
	}
	flush(t, m)
	wantCalls(t, "the finish", ss.take(), "Put t/k", "Delete _tsr")
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
// after the last transaction and never tells the manager, so a finish
// can find its store gone. It must fail quietly: no panic, the TSR
// counted as left (a reader of the reopened store finishes from it),
// and the goroutine gone once its calls have failed.
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
	flush(t, m)

	closed := make(chan struct{})
	ss.before = func(op, table, _ string, fields map[string][]byte) error {
		if isRollForward(op, table, fields) {
			<-closed
		}
		return nil
	}
	tx, _ := m.Begin(ctx)
	tx.Write("", "t", "k", bal(2))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	flush(t, m)
	if got := reg.Counter("txn_tsr_left_total").Value(); got != 1 {
		t.Errorf("txn_tsr_left_total = %d, want the one whose roll-forward met a closed store", got)
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Errorf("%d goroutines after the finish failed, %d before", n, baseline)
	}
}

// TestLocalStoreFinishesOnCommitter: over a raw LocalStore every store
// runs its calls on the caller, so each commit makes its own finish
// before it returns. Transfers run without a Flush, by four clients at
// once and then by one; the engine holds no prepared record and no TSR
// afterwards, no finish counted as back-pressure, none is pending, and
// no goroutine outlives the commit that would have started it.
func TestLocalStoreFinishesOnCommitter(t *testing.T) {
	const (
		workers   = 4
		transfers = 100
		accounts  = 8
	)
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	reg := obs.NewRegistry()
	m, err := NewManager(Options{Metrics: reg}, NewLocalStore("local", inner))
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
	}
	wantNoDebris(t, inner, "t")
	if got := reg.Counter("txn_finish_inline_total").Value(); got != 0 {
		t.Errorf("txn_finish_inline_total = %d, want 0: no finish waited on the bound", got)
	}
	m.finMu.Lock()
	pending := m.finPending
	m.finMu.Unlock()
	if pending != 0 {
		t.Errorf("%d finishes pending with every Commit returned", pending)
	}
	if commits, _, _, _ := m.Stats(); commits != (workers+1)*transfers+1 {
		t.Errorf("%d commits, want %d transfers and the load", commits, (workers+1)*transfers)
	}
}

// TestMixedManagerFinishesBehind: one store that does not say its calls
// run on the caller — here a decorator that does not forward the
// method — keeps its manager on the deferred schedule, though the other
// store is a raw LocalStore. The finish is held at the decorated store's
// roll-forward: Commit returns regardless, and the roll-forward is made
// behind it.
func TestMixedManagerFinishesBehind(t *testing.T) {
	ctx := context.Background()
	s1, s2 := kvstore.OpenMemory(), kvstore.OpenMemory()
	defer s1.Close()
	defer s2.Close()
	beta := &scriptStore{Store: NewLocalStore("beta", s2)}
	m, err := NewManager(Options{}, NewLocalStore("alpha", s1), beta)
	if err != nil {
		t.Fatal(err)
	}
	// A finish on the committer would wait here until the limit, and
	// then show its roll-forward among the calls Commit waited for.
	hold := make(chan struct{})
	beta.before = func(op, table, _ string, fields map[string][]byte) error {
		if isRollForward(op, table, fields) {
			select {
			case <-hold:
			case <-time.After(tsrDeleteLimit):
			}
		}
		return nil
	}
	tx, _ := m.Begin(ctx)
	tx.Write("alpha", "t", "a", bal(1))
	tx.Write("beta", "t", "b", bal(2))
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	wantCalls(t, "beta, when Commit returns", beta.take(), "Get t/b", "Put t/b")
	close(hold)
	flush(t, m)
	wantCalls(t, "beta, behind it", beta.take(), "Put t/b")
	wantNoDebris(t, s1, "t")
	wantNoDebris(t, s2, "t")
}
