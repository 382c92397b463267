// End-to-end exercise of the MVCC tentpole: a read-only transaction
// scans the whole table at one fixed timestamp while a closed economy
// of transfer writers churns underneath it. Every snapshot scan must
// sum to exactly the snapshot-time total — no torn cuts, no drift —
// and the writers must keep committing while the scans run (snapshot
// readers take no locks).
package ycsbt_test

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/txn"
)

func TestLongScanUnderWrites(t *testing.T) {
	ctx := context.Background()
	const (
		writers  = 32
		accounts = 64
		initial  = 100
		total    = accounts * initial
	)

	// Aggressive retention plus a live vacuum so the scan also proves
	// the min-active-ts watermark: without it the pinned versions would
	// be reclaimed mid-scan.
	inner, err := kvstore.Open(kvstore.Options{Retention: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inner.Close() })
	m, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}

	acct := func(i int) string { return "acct" + strconv.Itoa(i) }
	bal := func(n int64) map[string][]byte {
		return map[string][]byte{"balance": []byte(strconv.FormatInt(n, 10))}
	}
	getBal := func(f map[string][]byte) int64 {
		n, err := strconv.ParseInt(string(f["balance"]), 10, 64)
		if err != nil {
			t.Fatalf("bad balance %q: %v", f["balance"], err)
		}
		return n
	}

	if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("", "t", acct(i), bal(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// 32 transfer writers: move money between random account pairs,
	// preserving the total at every commit boundary.
	var (
		stop    atomic.Bool
		commits atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				if from == to {
					continue
				}
				amt := int64(rng.Intn(5) + 1)
				err := m.RunInTxn(ctx, 2, func(tx *txn.Txn) error {
					ff, err := tx.Read(ctx, "", "t", acct(from))
					if err != nil {
						return err
					}
					tf, err := tx.Read(ctx, "", "t", acct(to))
					if err != nil {
						return err
					}
					if err := tx.Write("", "t", acct(from), bal(getBal(ff)-amt)); err != nil {
						return err
					}
					return tx.Write("", "t", acct(to), bal(getBal(tf)+amt))
				})
				if err == nil {
					commits.Add(1)
				}
			}
		}(int64(w))
	}

	// A vacuum loop races the pinned reader for the old versions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			inner.Vacuum()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Let the economy churn, then open the long-running snapshot.
	for commits.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	ro, err := m.BeginReadOnly(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var pinnedTS int64
	before := commits.Load()
	for round := 0; round < 15; round++ {
		kvs, err := ro.Scan(ctx, "", "t", "", -1)
		if err != nil {
			t.Fatalf("round %d: snapshot scan: %v", round, err)
		}
		if len(kvs) != accounts {
			t.Fatalf("round %d: scan saw %d accounts, want %d", round, len(kvs), accounts)
		}
		var sum int64
		for _, kv := range kvs {
			sum += getBal(kv.Fields.Map())
		}
		if sum != total {
			t.Fatalf("round %d: snapshot scan sum = %d, want exactly %d", round, sum, total)
		}
		if ts := ro.ReadTS(""); round == 0 {
			pinnedTS = ts
			if ts == 0 {
				t.Fatal("no snapshot ts pinned")
			}
		} else if ts != pinnedTS {
			t.Fatalf("round %d: snapshot ts moved %d -> %d", round, pinnedTS, ts)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Writers were never blocked by the scanning snapshot.
	if after := commits.Load(); after <= before {
		t.Fatalf("writers stalled during the snapshot scans: %d -> %d commits", before, after)
	}
	if err := ro.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	stop.Store(true)
	wg.Wait()

	// The economy stayed closed at the head too.
	var sum int64
	if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		sum = 0
		kvs, err := tx.Scan(ctx, "", "t", "", -1)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			sum += getBal(kv.Fields.Map())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != total {
		t.Fatalf("final head sum = %d, want %d", sum, total)
	}
	t.Logf("scanned %d rounds at ts %d over %d live commits", 15, pinnedTS, commits.Load()-before)
}
