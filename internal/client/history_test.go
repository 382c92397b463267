package client

import (
	"context"
	"strings"
	"testing"

	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/txn"
	"ycsbt/internal/workload"
)

// TestHistoryRecordedNativelyOverTxnkv runs Config.History over txnkv:
// the client hands the sink to the binding (history.CapableDB) and
// stacks no capture middleware, so every committed transaction is
// recorded exactly once, by the transaction manager, with its keys
// qualified by store.
func TestHistoryRecordedNativelyOverTxnkv(t *testing.T) {
	ctx := context.Background()
	inner := kvstore.OpenMemory()
	defer inner.Close()
	m, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("local", inner))
	if err != nil {
		t.Fatal(err)
	}
	p := cewProps(map[string]string{
		"recordcount":               "50",
		"totalcash":                 "5000",
		"operationcount":            "400",
		"threadcount":               "2",
		"readproportion":            "0.5",
		"readmodifywriteproportion": "0.5",
	})
	reg := measurement.NewRegistry(0)
	w, err := workload.New("closedeconomy")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Init(p, reg); err != nil {
		t.Fatal(err)
	}
	sink := &history.MemorySink{}
	cfg := BuildConfig(p)
	cfg.History = sink
	c, err := New(cfg, w, txn.NewBinding(m), reg)
	if err != nil {
		t.Fatal(err)
	}
	if !c.histNative {
		t.Fatal("txnkv binding did not take the history sink")
	}
	if _, err := c.Load(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}

	commits, _, _, _ := m.Stats()
	seen := make(map[string]bool)
	var committed int64
	for _, rec := range sink.Records() {
		// The capture middleware names its transactions "s<session>-<n>",
		// the manager "t<manager>-<start>-<seq>".
		if !strings.HasPrefix(rec.ID, "t") {
			t.Fatalf("transaction %s was not recorded by the manager", rec.ID)
		}
		if seen[rec.ID] {
			t.Fatalf("transaction %s recorded twice", rec.ID)
		}
		seen[rec.ID] = true
		if rec.Committed() {
			committed++
		}
		for _, op := range rec.Ops {
			if op.Store != "local" {
				t.Fatalf("transaction %s: op %+v has no store", rec.ID, op)
			}
		}
	}
	if committed == 0 || committed != commits {
		t.Errorf("%d committed transactions recorded, manager committed %d", committed, commits)
	}
}
