package txn

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/cloudsim"
	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
)

// runWriteSkewHistory drives concurrent write-skew-prone withdrawals
// through the transaction library with a history sink attached and
// returns the certifier's verdict plus how many pair constraints were
// violated.
func runWriteSkewHistory(t *testing.T, serializable bool) (*history.Result, int) {
	t.Helper()
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	t.Cleanup(func() { inner.Close() })
	// Small per-request latency so transactions interleave on a
	// single CPU.
	store := cloudsim.NewOver(cloudsim.Config{
		Name:         "local",
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 200 * time.Microsecond,
	}, inner)
	sink := &history.MemorySink{}
	m, err := NewManager(Options{SerializableReads: serializable, History: sink}, store)
	if err != nil {
		t.Fatal(err)
	}

	const pairs = 6
	// Deep balances keep the constraint satisfiable for many rounds,
	// so skew-shaped concurrent commits keep happening; the cycle
	// detector needs the interleaving shape, not an actual overdraft.
	if err := m.RunInTxn(ctx, 0, func(tx *Txn) error {
		for i := 0; i < pairs; i++ {
			if err := tx.Insert("local", "t", fmt.Sprintf("p%02da", i), bal(10000)); err != nil {
				return err
			}
			if err := tx.Insert("local", "t", fmt.Sprintf("p%02db", i), bal(10000)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				pair := (w + i) % pairs
				ka := fmt.Sprintf("p%02da", pair)
				kb := fmt.Sprintf("p%02db", pair)
				// Workers in the two halves debit opposite sides, so
				// concurrent withdrawals against one pair write
				// different records — the write-skew shape.
				target := ka
				if w >= 6 {
					target = kb
				}
				m.RunInTxn(ctx, 0, func(tx *Txn) error {
					fa, err := tx.Read(ctx, "local", "t", ka)
					if err != nil {
						return err
					}
					fb, err := tx.Read(ctx, "local", "t", kb)
					if err != nil {
						return err
					}
					a, _ := strconv.ParseInt(string(fa["balance"]), 10, 64)
					b, _ := strconv.ParseInt(string(fb["balance"]), 10, 64)
					if a+b < 150 {
						return nil
					}
					cur := a
					if target == kb {
						cur = b
					}
					return tx.Write("local", "t", target, bal(cur-150))
				})
			}
		}(w)
	}
	wg.Wait()
	flush(t, m)

	violations := 0
	for i := 0; i < pairs; i++ {
		ra, err := inner.Get("t", fmt.Sprintf("p%02da", i))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := inner.Get("t", fmt.Sprintf("p%02db", i))
		if err != nil {
			t.Fatal(err)
		}
		a, _ := strconv.ParseInt(string(ra.Field("balance")), 10, 64)
		b, _ := strconv.ParseInt(string(rb.Field("balance")), 10, 64)
		if a+b < 0 {
			violations++
		}
	}
	return history.Check(sink.Records()), violations
}

// TestTracedSerializabilityCheck runs the Zellag & Kemme-style cycle
// detection over real executions of the transaction library: snapshot
// mode must produce dependency cycles (write skew) of the shape
// snapshot isolation permits; serializable mode must certify both
// serializability and snapshot isolation.
func TestTracedSerializabilityCheck(t *testing.T) {
	res, _ := runWriteSkewHistory(t, true)
	if res.Committed == 0 {
		t.Fatal("nothing recorded")
	}
	if !res.Serializable || res.SI != history.SICertified {
		t.Errorf("serializable mode not certified:\n%s", res.Summary())
	}

	// Snapshot mode: write skew is probabilistic; retry a few times.
	for attempt := 0; attempt < 5; attempt++ {
		res, violations := runWriteSkewHistory(t, false)
		if len(res.Cycles) == 0 {
			continue
		}
		for _, c := range res.Cycles {
			if !c.SIPermitted {
				t.Errorf("snapshot mode cycle %v lacks the consecutive-RW shape SI permits", c.Nodes)
			}
		}
		t.Logf("snapshot mode: %d committed, %d cycles, SI %s (invariant violations: %d)",
			res.Committed, len(res.Cycles), res.SI, violations)
		return
	}
	t.Error("snapshot mode never produced a dependency cycle in 5 attempts")
}
