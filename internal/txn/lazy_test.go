package txn

import (
	"context"
	"sync/atomic"
	"testing"

	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
)

// countingClock counts the timestamps drawn from the clock it wraps.
type countingClock struct {
	Clock
	n atomic.Int64
}

func (c *countingClock) Now() int64 {
	c.n.Add(1)
	return c.Clock.Now()
}

// TestReadOnlyTxnDrawsOnlyForHistory: only a history record carries a
// read-only transaction's timestamps, so without a sink it draws none —
// and makes no id — and with one Begin draws exactly one, the start
// timestamp the record carries, and Commit one more, its commit point
// after the last read.
func TestReadOnlyTxnDrawsOnlyForHistory(t *testing.T) {
	ctx := context.Background()
	for _, withSink := range []bool{false, true} {
		clock := &countingClock{Clock: NewHLC()}
		sink := &history.MemorySink{}
		opts := Options{Clock: clock}
		if withSink {
			opts.History = sink
		}
		m, _ := newTestManager(t, opts)
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Insert("", "acct", "a", bal(1)) }); err != nil {
			t.Fatal(err)
		}
		clock.n.Store(0)
		tx, err := m.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantBegin := int64(0)
		if withSink {
			wantBegin = 1
		}
		if got := clock.n.Load(); got != wantBegin {
			t.Errorf("sink %v: Begin drew %d timestamps, want %d", withSink, got, wantBegin)
		}
		if _, err := tx.Read(ctx, "", "acct", "a"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if !withSink {
			if got := clock.n.Load(); got != 0 || tx.id != "" {
				t.Errorf("no sink: a read-only transaction drew %d timestamps and made id %q, want none", got, tx.id)
			}
			continue
		}
		if got := clock.n.Load(); got != 2 {
			t.Errorf("sink: a read-only transaction drew %d timestamps, want 2 (start, commit)", got)
		}
		recs := sink.Records()
		rec := recs[len(recs)-1]
		if rec.ID != tx.ID() || rec.StartTS != tx.startTS || rec.StartTS == 0 || rec.CommitTS <= rec.StartTS {
			t.Errorf("sink: record %s start %d commit %d, want %s started at Begin's %d and committed after it",
				rec.ID, rec.StartTS, rec.CommitTS, tx.ID(), tx.startTS)
		}
	}
}

// TestTxnIDIsOneID: the id a transaction makes on first use is the one
// everything names it by — its TSR's key, every prepared record's
// _txn:id, the finishing registry and its history record — and no two
// transactions of one manager share one, whether a sink, a prepare or
// ID made it.
func TestTxnIDIsOneID(t *testing.T) {
	ctx := context.Background()
	sink := &history.MemorySink{}
	m, ss, _ := newScriptManager(t, Options{History: sink})
	var tsrKeys, preparedIDs []string
	ss.before = func(op, table, key string, fields map[string][]byte) error {
		switch {
		case op == "Put" && table == tsrTable:
			tsrKeys = append(tsrKeys, key)
		case op == "Put" && isPrepared(&kvstore.VersionedRecord{Fields: fields}):
			preparedIDs = append(preparedIDs, string(fields[metaID]))
		}
		return nil
	}
	seen := map[string]bool{}
	unique := func(id string) {
		t.Helper()
		if id == "" || seen[id] {
			t.Fatalf("id %q is empty or taken by an earlier transaction", id)
		}
		seen[id] = true
	}
	for i := 0; i < 5; i++ {
		tsrKeys, preparedIDs = nil, nil
		tx, err := m.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"a", "b", "c"} {
			if err := tx.Write("", "acct", k, bal(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		id := tx.ID()
		unique(id)
		if len(tsrKeys) != 1 || tsrKeys[0] != id {
			t.Errorf("transaction %s wrote TSRs %q", id, tsrKeys)
		}
		if len(preparedIDs) != 3 {
			t.Errorf("transaction %s prepared %d records, want 3", id, len(preparedIDs))
		}
		for _, pid := range preparedIDs {
			if pid != id {
				t.Errorf("transaction %s prepared a record under _txn:id %q", id, pid)
			}
		}
		if m.finishOf(id) == nil {
			t.Errorf("transaction %s is not in the finishing registry", id)
		}
		recs := sink.Records()
		if got := recs[len(recs)-1].ID; got != id {
			t.Errorf("transaction %s has history record %s", id, got)
		}
	}
	// A one-key commit and a read-only transaction make theirs for the
	// history record; without a sink, ID makes one.
	for i := 0; i < 5; i++ {
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { return tx.Write("", "acct", "a", bal(int64(i))) }); err != nil {
			t.Fatal(err)
		}
		if err := m.RunInTxn(ctx, 0, func(tx *Txn) error { _, err := tx.Read(ctx, "", "acct", "b"); return err }); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range sink.Records()[5:] {
		unique(rec.ID)
	}
	m.SetHistory(nil)
	for i := 0; i < 5; i++ {
		tx, err := m.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		unique(tx.ID())
	}
}
