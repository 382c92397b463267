// Contention and accounting end to end. The repository's benchmark
// drives the transactional workloads with one client thread, so it
// never sees two transactions meet; this cell does: four goroutines
// run read-modify-write transfers over a 16-account hot set on a
// three-node cluster behind the binary wire protocol. A
// transaction's repeated reads and its prepares are served from its
// read set, so a stale image can only be caught by the prepare's
// conditional put — under real conflicts cash must still be conserved,
// the history must certify, every Begin must end in exactly one commit
// or abort, and once the manager has flushed its finishes nothing may
// be left prepared.
package ycsbt_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/txn"
)

func TestClusterTransfersUnderContentionBalance(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startFleet(t, 3, 12, nil)
	router, err := httpkv.NewRouter(nodeURLs(nodes), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Cleanup()
	store := httpkv.NewRouterStore("cluster", router)

	histPath := filepath.Join(t.TempDir(), "history.ndjson")
	sink, err := history.OpenFile(histPath, history.SinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := txn.NewManager(txn.Options{History: sink}, store)
	if err != nil {
		t.Fatal(err)
	}
	b := txn.NewBinding(m)

	const (
		accounts  = 16
		initial   = 1000
		workers   = 4
		transfers = 150 // per worker
		table     = "acct"
	)
	acct := func(i int) string { return fmt.Sprintf("acct%02d", i) }
	var begins atomic.Int64

	// transfer runs inside one attempt of RunInTxn, through the binding's
	// in-transaction view, the way the CEW workload does: read both
	// accounts, update both.
	transfer := func(tx *txn.Txn, from, to string, amount int64) error {
		begins.Add(1)
		view := b.WithTx(&db.TransactionContext{Handle: tx})
		var bal [2]int64
		for i, k := range []string{from, to} {
			rec, err := view.Read(ctx, table, k, nil)
			if err != nil {
				return err
			}
			if bal[i], err = strconv.ParseInt(string(rec["balance"]), 10, 64); err != nil {
				return err
			}
		}
		if err := view.Update(ctx, table, from, db.Record{"balance": []byte(strconv.FormatInt(bal[0]-amount, 10))}); err != nil {
			return err
		}
		return view.Update(ctx, table, to, db.Record{"balance": []byte(strconv.FormatInt(bal[1]+amount, 10))})
	}

	begins.Add(1)
	if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := tx.Insert("", table, acct(i), map[string][]byte{"balance": []byte(strconv.Itoa(initial))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("load: %v", err)
	}

	// Every transfer is retried until it commits, by RunInTxn and on its
	// back-off. (A conflict the read set decides costs the loser two
	// round trips, so a client that retries at once comes back within
	// ~40 µs; when the winner's goroutine is held up for a few
	// milliseconds — two CPUs carry the clients and all three nodes here —
	// fifty such retries fit inside the stall.)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < transfers; i++ {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				amount := int64(1 + rng.Intn(20))
				err := m.RunInTxn(ctx, 10000, func(tx *txn.Txn) error {
					return transfer(tx, acct(from), acct(to), amount)
				})
				if err != nil {
					t.Errorf("worker %d transfer %d: %v", w, i, err)
					return
				}
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Accounting: every Begin ended in exactly one commit or abort.
	commits, aborts, conflicts, recovered := m.Stats()
	t.Logf("contention: %d transfers committed in %d transactions: %d aborts, %d prepare conflicts, %d recoveries — %.3f attempts and %.3f conflicts per committed transfer",
		done.Load(), begins.Load(), aborts, conflicts, recovered,
		float64(begins.Load()-1)/float64(done.Load()), float64(conflicts)/float64(done.Load()))
	if commits+aborts != begins.Load() {
		t.Errorf("commits %d + aborts %d != %d transactions begun", commits, aborts, begins.Load())
	}
	if done.Load() != workers*transfers || commits != done.Load()+1 {
		t.Errorf("%d transfers done, %d commits; want %d transfers and one more commit for the load", done.Load(), commits, workers*transfers)
	}
	if aborts == 0 {
		t.Error("no transaction aborted: the cell saw no contention")
	}

	// Nothing left behind in any node's engine: no prepared record, no
	// TSR, the cash all there — and every node took wire frames, so
	// the run really crossed nodes on the framed protocol.
	var cash int64
	held := 0
	for i, nd := range nodes {
		recs, err := nd.store.Scan(table, "", -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range recs {
			if state := kv.Record.Field("_txn:state"); state != nil {
				t.Errorf("node %d: %s left prepared (state %q, txn %s)", i, kv.Key, state, kv.Record.Field("_txn:id"))
			}
			n, err := strconv.ParseInt(string(kv.Record.Field("balance")), 10, 64)
			if err != nil {
				t.Errorf("node %d: %s: %v", i, kv.Key, err)
			}
			cash += n
		}
		held += len(recs)
		if n := nd.store.Len("_tsr"); n != 0 {
			t.Errorf("node %d: %d TSRs left behind", i, n)
		}
		if nd.reg.Counter("kvwire_frames_total", "dir", "in").Value() == 0 {
			t.Errorf("node %d saw no wire frames", i)
		}
	}
	if held != accounts || cash != accounts*initial {
		t.Errorf("%d accounts hold %d, want %d holding %d", held, cash, accounts, accounts*initial)
	}

	// Offline certification of the whole contended history.
	if err := sink.Close(); err != nil {
		t.Fatalf("history sink: %v", err)
	}
	if _, dropped := sink.Stats(); dropped != 0 {
		t.Errorf("history sink dropped %d records", dropped)
	}
	hist, _, err := history.LoadFile(histPath)
	if err != nil {
		t.Fatalf("decoding history: %v", err)
	}
	cert := history.Check(hist)
	t.Logf("histcheck: %s", cert.Summary())
	if int64(cert.Committed) != commits {
		t.Errorf("history holds %d committed transactions, manager counted %d", cert.Committed, commits)
	}
	if !cert.Serializable {
		t.Errorf("contended history refuted: cycles %+v dirty reads %+v", cert.Cycles, cert.DirtyReads)
	}
}
