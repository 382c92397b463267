// Bank transfer: direct use of the client-coordinated transaction
// library (the paper's own system, Section II-B) without the
// benchmark harness. Demonstrates:
//
//   - multi-key atomic transfers with automatic conflict retry,
//
//   - crash recovery: a transaction that dies after its commit point
//     is rolled forward by the next reader,
//
//   - the total-balance invariant surviving heavy concurrency.
//
//     go run ./examples/banktransfer
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/txn"
)

const (
	accounts  = 50
	initial   = int64(1000)
	transfers = 200
	workers   = 8
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "banktransfer:", err)
		os.Exit(1)
	}
}

func acct(i int) string { return fmt.Sprintf("acct%03d", i) }

func bal(n int64) map[string][]byte {
	return map[string][]byte{"balance": []byte(strconv.FormatInt(n, 10))}
}

func parse(f map[string][]byte) int64 {
	n, _ := strconv.ParseInt(string(f["balance"]), 10, 64)
	return n
}

func run() error {
	ctx := context.Background()
	store := kvstore.OpenMemory()
	defer store.Close()
	m, err := txn.NewManager(txn.Options{RecoveryTimeout: 500 * time.Millisecond},
		txn.NewLocalStore("bank", store))
	if err != nil {
		return err
	}

	// Open the accounts in one transaction.
	if err := m.RunInTxn(ctx, 0, func(t *txn.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := t.Insert("bank", "accounts", acct(i), bal(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Printf("opened %d accounts with $%d each\n", accounts, initial)

	// Hammer the bank with concurrent random transfers.
	var wg sync.WaitGroup
	var ok, failed int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < transfers; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				amount := int64(r.Intn(50) + 1)
				err := m.RunInTxn(ctx, 10, func(t *txn.Txn) error {
					ff, err := t.Read(ctx, "bank", "accounts", acct(from))
					if err != nil {
						return err
					}
					if parse(ff) < amount {
						return nil // insufficient funds: commit no-op
					}
					tf, err := t.Read(ctx, "bank", "accounts", acct(to))
					if err != nil {
						return err
					}
					if err := t.Write("bank", "accounts", acct(from), bal(parse(ff)-amount)); err != nil {
						return err
					}
					return t.Write("bank", "accounts", acct(to), bal(parse(tf)+amount))
				})
				mu.Lock()
				if err == nil {
					ok++
				} else {
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// A commit returns at its commit point; wait for the roll-forwards
	// still running behind the last ones before looking at the store
	// directly.
	if err := m.Flush(ctx); err != nil {
		return err
	}
	commits, aborts, conflicts, _ := m.Stats()
	fmt.Printf("transfers: %d committed, %d failed (manager: %d commits, %d aborts, %d conflicts)\n",
		ok, failed, commits, aborts, conflicts)

	if err := checkTotal(store, "after concurrent transfers"); err != nil {
		return err
	}

	// Crash demo: prepare a transfer, write the TSR (commit point),
	// then "crash" before rolling forward. The next reader finishes
	// the job.
	if err := crashAfterCommitPoint(ctx, m, store); err != nil {
		return err
	}
	return checkTotal(store, "after crash recovery")
}

// checkTotal asserts the closed-economy invariant directly on the
// store.
func checkTotal(store *kvstore.Store, when string) error {
	var total int64
	store.ForEach("accounts", func(_ string, rec *kvstore.VersionedRecord) bool {
		total += parse(rec.Fields)
		return true
	})
	want := int64(accounts) * initial
	fmt.Printf("total balance %s: $%d (expected $%d)\n", when, total, want)
	if total != want {
		return fmt.Errorf("invariant broken: %d != %d", total, want)
	}
	return nil
}

// crashAfterCommitPoint simulates a client that dies right after
// writing its transaction status record: the transfer is durably
// committed but the records still hold prepared images. A subsequent
// read resolves and rolls them forward.
func crashAfterCommitPoint(ctx context.Context, m *txn.Manager, store *kvstore.Store) error {
	fmt.Println("\nsimulating a writer crash after the commit point...")
	// Install prepared images by hand, exactly as a dying writer
	// would leave them (move $100 acct000 → acct001).
	a, err := store.Get("accounts", acct(0))
	if err != nil {
		return err
	}
	b, err := store.Get("accounts", acct(1))
	if err != nil {
		return err
	}
	balA, balB := parse(a.FieldMap()), parse(b.FieldMap())
	if err := txn.InstallPreparedForTest(store, "accounts", acct(0), a, bal(balA-100), "crashed-txn-1", "bank"); err != nil {
		return err
	}
	if err := txn.InstallPreparedForTest(store, "accounts", acct(1), b, bal(balB+100), "crashed-txn-1", "bank"); err != nil {
		return err
	}
	if err := txn.InstallCommittedTSRForTest(store, "crashed-txn-1"); err != nil {
		return err
	}

	// Any transactional read now resolves the crashed writer.
	return m.RunInTxn(ctx, 0, func(t *txn.Txn) error {
		fa, err := t.Read(ctx, "bank", "accounts", acct(0))
		if err != nil {
			return err
		}
		fb, err := t.Read(ctx, "bank", "accounts", acct(1))
		if err != nil {
			return err
		}
		fmt.Printf("reader resolved crashed transfer: acct000=$%d acct001=$%d (rolled forward)\n",
			parse(fa), parse(fb))
		return nil
	})
}
