// Heterogeneous stores: one transaction spanning two different
// simulated cloud providers — the headline capability of the paper's
// client-coordinated transaction library ("It enables transactions to
// span across hybrid data stores that can be deployed in different
// regions and does not rely upon a central timestamp manager").
//
// A WAS-like container holds the checking accounts; a GCS-like
// container holds the savings accounts. Transfers between them commit
// atomically: either both sides move or neither does, with the
// transaction status record living on the coordinating store.
//
//	go run ./examples/heterogeneous
package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"ycsbt/internal/cloudsim"
	"ycsbt/internal/txn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "heterogeneous:", err)
		os.Exit(1)
	}
}

func bal(n int64) map[string][]byte {
	return map[string][]byte{"balance": []byte(strconv.FormatInt(n, 10))}
}

func parse(f map[string][]byte) int64 {
	n, _ := strconv.ParseInt(string(f["balance"]), 10, 64)
	return n
}

func run() error {
	ctx := context.Background()

	// Two simulated providers with different latency profiles; shrink
	// the latencies so the demo runs in a couple of seconds.
	wasCfg := cloudsim.WASPreset()
	wasCfg.ReadLatency, wasCfg.WriteLatency = 300*time.Microsecond, 600*time.Microsecond
	gcsCfg := cloudsim.GCSPreset()
	gcsCfg.ReadLatency, gcsCfg.WriteLatency = 400*time.Microsecond, 800*time.Microsecond
	was := cloudsim.New(wasCfg)
	gcs := cloudsim.New(gcsCfg)
	defer was.Close()
	defer gcs.Close()

	m, err := txn.NewManager(txn.Options{}, was, gcs)
	if err != nil {
		return err
	}

	const customers = 20
	const perAccount = int64(500)
	if err := m.RunInTxn(ctx, 0, func(t *txn.Txn) error {
		for i := 0; i < customers; i++ {
			key := fmt.Sprintf("cust%02d", i)
			if err := t.Insert("was", "checking", key, bal(perAccount)); err != nil {
				return err
			}
			if err := t.Insert("gcs", "savings", key, bal(perAccount)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Printf("created %d customers: checking on WAS, savings on GCS\n", customers)

	// Concurrent cross-provider sweeps: move $10 checking → savings.
	var wg sync.WaitGroup
	var moved int64
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("cust%02d", (w*25+i)%customers)
				err := m.RunInTxn(ctx, 10, func(t *txn.Txn) error {
					cf, err := t.Read(ctx, "was", "checking", key)
					if err != nil {
						return err
					}
					if parse(cf) < 10 {
						return nil
					}
					sf, err := t.Read(ctx, "gcs", "savings", key)
					if err != nil {
						return err
					}
					if err := t.Write("was", "checking", key, bal(parse(cf)-10)); err != nil {
						return err
					}
					return t.Write("gcs", "savings", key, bal(parse(sf)+10))
				})
				if err == nil {
					mu.Lock()
					moved += 10
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	// Verify the global invariant across both providers with one
	// transactional scan each.
	var checking, savings int64
	if err := m.RunInTxn(ctx, 3, func(t *txn.Txn) error {
		checking, savings = 0, 0
		ckvs, err := t.Scan(ctx, "was", "checking", "", -1)
		if err != nil {
			return err
		}
		for _, kv := range ckvs {
			checking += parse(kv.Record)
		}
		skvs, err := t.Scan(ctx, "gcs", "savings", "", -1)
		if err != nil {
			return err
		}
		for _, kv := range skvs {
			savings += parse(kv.Record)
		}
		return nil
	}); err != nil {
		return err
	}

	total := checking + savings
	want := int64(customers) * perAccount * 2
	commits, aborts, conflicts, _ := m.Stats()
	fmt.Printf("swept ~$%d across providers (%d commits, %d aborts, %d conflicts)\n",
		moved, commits, aborts, conflicts)
	fmt.Printf("WAS checking total: $%d, GCS savings total: $%d, grand total $%d (expected $%d)\n",
		checking, savings, total, want)
	if total != want {
		return fmt.Errorf("cross-store invariant broken: %d != %d", total, want)
	}
	wr, ww, _ := was.Stats()
	gr, gw, _ := gcs.Stats()
	fmt.Printf("request counts — WAS: %d reads / %d writes; GCS: %d reads / %d writes\n", wr, ww, gr, gw)
	return nil
}
