package txn_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/txn"
)

func balance(n int64) map[string][]byte {
	return map[string][]byte{"balance": []byte(strconv.FormatInt(n, 10))}
}

func parseBalance(f map[string][]byte) int64 {
	n, _ := strconv.ParseInt(string(f["balance"]), 10, 64)
	return n
}

// transfer moves amount between two accounts in one transaction,
// retrying on conflict; an account short of funds makes it a no-op.
func transfer(ctx context.Context, m *txn.Manager, from, to string, amount int64) error {
	return m.RunInTxn(ctx, 10, func(t *txn.Txn) error {
		ff, err := t.Read(ctx, "bank", "accounts", from)
		if err != nil {
			return err
		}
		if parseBalance(ff) < amount {
			return nil
		}
		tf, err := t.Read(ctx, "bank", "accounts", to)
		if err != nil {
			return err
		}
		if err := t.Write("bank", "accounts", from, balance(parseBalance(ff)-amount)); err != nil {
			return err
		}
		return t.Write("bank", "accounts", to, balance(parseBalance(tf)+amount))
	})
}

// The transaction library used directly, without the benchmark client:
// accounts opened in one transaction, one transfer read back, then
// concurrent random transfers that conflict and retry while the total
// balance stays exactly where it started.
func Example() {
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("bank", inner))
	if err != nil {
		fmt.Println(err)
		return
	}

	const accounts, initial = 20, int64(1000)
	acct := func(i int) string { return fmt.Sprintf("acct%03d", i) }
	if err := m.RunInTxn(ctx, 0, func(t *txn.Txn) error {
		for i := 0; i < accounts; i++ {
			if err := t.Insert("bank", "accounts", acct(i), balance(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		fmt.Println(err)
		return
	}

	if err := transfer(ctx, m, acct(0), acct(1), 100); err != nil {
		fmt.Println(err)
		return
	}
	_ = m.RunInTxn(ctx, 0, func(t *txn.Txn) error {
		a, _ := t.Read(ctx, "bank", "accounts", acct(0))
		b, _ := t.Read(ctx, "bank", "accounts", acct(1))
		fmt.Printf("after one transfer: %s=$%d %s=$%d\n", acct(0), parseBalance(a), acct(1), parseBalance(b))
		return nil
	})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from != to {
					// A transfer that runs out of retries changes nothing.
					_ = transfer(ctx, m, acct(from), acct(to), int64(r.Intn(50)+1))
				}
			}
		}(int64(w))
	}
	wg.Wait()

	var total int64
	if err := m.RunInTxn(ctx, 3, func(t *txn.Txn) error {
		total = 0
		kvs, err := t.Scan(ctx, "bank", "accounts", "", -1)
		if err != nil {
			return err
		}
		for _, kv := range kvs {
			total += parseBalance(kv.Fields.Map())
		}
		return nil
	}); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("total after concurrent transfers: $%d (opened with $%d)\n", total, accounts*initial)
	// Output:
	// after one transfer: acct000=$900 acct001=$1100
	// total after concurrent transfers: $20000 (opened with $20000)
}
