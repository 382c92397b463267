package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/txn"
)

func fieldsOf(s string) map[string][]byte {
	return map[string][]byte{"f": []byte(s)}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Backups: 0}); err == nil {
		t.Error("zero backups accepted")
	}
}

func TestSyncReplicationKeepsBackupsCurrent(t *testing.T) {
	s, err := New(Config{Name: "r", Backups: 2, Mode: Sync})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := s.Put(ctx, "t", fmt.Sprintf("k%d", i), fieldsOf("v"), kvstore.AnyVersion); err != nil {
			t.Fatal(err)
		}
	}
	if s.Lag() != 0 {
		t.Errorf("sync lag = %d", s.Lag())
	}
	for i := 0; i < 2; i++ {
		if d := s.Divergence("t", i); d != 0 {
			t.Errorf("backup %d diverges by %d", i, d)
		}
	}
	// Deletes replicate too.
	if err := s.Delete(ctx, "t", "k0", kvstore.AnyVersion); err != nil {
		t.Fatal(err)
	}
	if d := s.Divergence("t", 0); d != 0 {
		t.Errorf("divergence after delete = %d", d)
	}
}

func TestAsyncReplicationConvergesAfterFlush(t *testing.T) {
	s, err := New(Config{Name: "r", Backups: 1, Mode: Async, ReplicaLag: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), fieldsOf("v"), kvstore.AnyVersion); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if s.Lag() != 0 {
		t.Errorf("lag after Flush = %d", s.Lag())
	}
	if d := s.Divergence("t", 0); d != 0 {
		t.Errorf("divergence after flush = %d", d)
	}
}

func TestAsyncStaleReadsFromBackup(t *testing.T) {
	s, err := New(Config{
		Name: "r", Backups: 1, Mode: Async,
		ReadPolicy: ReadBackup, ReplicaLag: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Put(ctx, "t", "k", fieldsOf("v1"), kvstore.AnyVersion); err != nil {
		t.Fatal(err)
	}
	// Immediately after the write the backup has not applied it: the
	// read is stale (here: not found), the Wada et al. scenario the
	// paper cites.
	if _, err := s.Get(ctx, "t", "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Logf("backup read = %v (apply won the race; acceptable)", err)
	}
	s.Flush()
	rec, err := s.Get(ctx, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Fields["f"]) != "v1" {
		t.Errorf("after flush = %s", rec.Fields["f"])
	}
}

func TestFailoverLosesAsyncButNotSyncWrites(t *testing.T) {
	ctx := context.Background()
	run := func(mode Mode) (lost int64, present int) {
		lag := time.Duration(0)
		if mode == Async {
			lag = 5 * time.Millisecond // ensure a backlog exists at failure
		}
		s, err := New(Config{Name: "r", Backups: 1, Mode: mode, ReplicaLag: lag})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < 30; i++ {
			if _, err := s.Put(ctx, "t", fmt.Sprintf("k%02d", i), fieldsOf("v"), kvstore.AnyVersion); err != nil {
				t.Fatal(err)
			}
		}
		s.FailPrimary()
		if _, err := s.Put(ctx, "t", "k99", fieldsOf("v"), kvstore.AnyVersion); !errors.Is(err, ErrPrimaryDown) {
			t.Errorf("write to failed primary = %v", err)
		}
		lost = s.Promote()
		kvs, err := s.Scan(ctx, "t", "", -1)
		if err != nil {
			t.Fatal(err)
		}
		return lost, len(kvs)
	}

	lostSync, presentSync := run(Sync)
	if lostSync != 0 || presentSync != 30 {
		t.Errorf("sync failover lost %d writes, %d present", lostSync, presentSync)
	}
	lostAsync, presentAsync := run(Async)
	if lostAsync == 0 {
		t.Error("async failover lost nothing despite replication lag (expected data loss)")
	}
	if int64(presentAsync)+lostAsync != 30 {
		t.Errorf("async accounting: %d present + %d lost != 30", presentAsync, lostAsync)
	}
	t.Logf("failover: sync lost %d, async lost %d of 30 acknowledged writes", lostSync, lostAsync)
}

func TestPromoteKeepsStoreUsable(t *testing.T) {
	s, err := New(Config{Name: "r", Backups: 1, Mode: Sync})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	s.Put(ctx, "t", "k", fieldsOf("v1"), kvstore.AnyVersion)
	s.FailPrimary()
	s.Promote()
	// Post-promotion: reads and writes work against the new primary.
	rec, err := s.Get(ctx, "t", "k")
	if err != nil || string(rec.Fields["f"]) != "v1" {
		t.Fatalf("read after promote = %v, %v", rec, err)
	}
	if _, err := s.Put(ctx, "t", "k2", fieldsOf("v2"), kvstore.AnyVersion); err != nil {
		t.Fatal(err)
	}
	// And the replacement backup receives new writes.
	if d := s.Divergence("t", 0); d > 1 {
		t.Errorf("new backup divergence = %d", d)
	}
}

func TestConditionalWritesEvaluateAtPrimary(t *testing.T) {
	s, err := New(Config{Name: "r", Backups: 1, Mode: Sync})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	v1, err := s.Put(ctx, "t", "k", fieldsOf("a"), kvstore.MustNotExist)
	if err != nil || v1 != 1 {
		t.Fatalf("create = %d, %v", v1, err)
	}
	if _, err := s.Put(ctx, "t", "k", fieldsOf("b"), 99); !errors.Is(err, kvstore.ErrVersionMismatch) {
		t.Errorf("stale CAS = %v", err)
	}
	if _, err := s.Put(ctx, "t", "k", fieldsOf("b"), 1); err != nil {
		t.Errorf("CAS = %v", err)
	}
}

func TestTransactionsOverReplicatedStore(t *testing.T) {
	// The replicated store satisfies the txn.Store interface, so the
	// client-coordinated library runs on top unchanged.
	s, err := New(Config{Name: "repl", Backups: 1, Mode: Sync})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := txn.NewManager(txn.Options{}, s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.RunInTxn(ctx, 0, func(tx *txn.Txn) error {
		if err := tx.Insert("repl", "acct", "a", fieldsOf("100")); err != nil {
			return err
		}
		return tx.Insert("repl", "acct", "b", fieldsOf("100"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Committed cleanly on primary AND backups.
	if d := s.Divergence("acct", 0); d != 0 {
		t.Errorf("backup diverges after transactional commit: %d", d)
	}
	if s.Primary().Len("_tsr") != 0 {
		t.Error("TSR left on primary")
	}
}

func TestConcurrentWritesPreserveOrder(t *testing.T) {
	s, err := New(Config{Name: "r", Backups: 1, Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Put(ctx, "t", "shared", fieldsOf(fmt.Sprintf("w%d-%d", w, i)), kvstore.AnyVersion)
			}
		}(w)
	}
	wg.Wait()
	s.Flush()
	// Backup must converge to exactly the primary's final value.
	if d := s.Divergence("t", 0); d != 0 {
		t.Errorf("backup diverged under concurrency: %d", d)
	}
}

func TestCloseSemantics(t *testing.T) {
	s, err := New(Config{Name: "r", Backups: 1, Mode: Async})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s.Put(ctx, "t", "k", fieldsOf("v"), kvstore.AnyVersion)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
	if _, err := s.Get(ctx, "t", "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after close = %v", err)
	}
	if _, err := s.Put(ctx, "t", "k", fieldsOf("v"), kvstore.AnyVersion); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v", err)
	}
}

func BenchmarkReplicationModes(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    Mode
	}{{"Sync", Sync}, {"Async", Async}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := New(Config{Name: "r", Backups: 2, Mode: mode.m})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			val := fieldsOf("some-value-payload")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Put(ctx, "t", fmt.Sprintf("k%06d", i%10000), val, kvstore.AnyVersion); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPromoteRacesWithReaders(t *testing.T) {
	// Promote must not race with concurrent reads (run with -race).
	s, err := New(Config{Name: "r", Backups: 2, Mode: Sync})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	s.Put(ctx, "t", "k", fieldsOf("v"), kvstore.AnyVersion)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			s.Get(ctx, "t", "k")
			s.Scan(ctx, "t", "", 1)
		}
	}()
	s.FailPrimary()
	s.Promote()
	<-done
	if _, err := s.Get(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncBatchedApplierPreservesSameKeyOrder hammers one key with
// interleaved puts and deletes so the applier's batch-draining path
// (many queued post-images shipped in one engine batch) must apply
// them in queue order to converge on the final value.
func TestAsyncBatchedApplierPreservesSameKeyOrder(t *testing.T) {
	// Lag makes the queue back up, so drains span many ops per batch.
	s, err := New(Config{Name: "r", Backups: 2, Mode: Async, ReplicaLag: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const rounds = 300
	for i := 0; i < rounds; i++ {
		if _, err := s.Put(ctx, "t", "hot", fieldsOf(fmt.Sprintf("v%03d", i)), kvstore.AnyVersion); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := s.Delete(ctx, "t", "hot", kvstore.AnyVersion); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Put(ctx, "t", "hot", fieldsOf(fmt.Sprintf("v%03d", i)), kvstore.AnyVersion); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Flush()
	if s.Lag() != 0 {
		t.Fatalf("lag after flush = %d", s.Lag())
	}
	want := fmt.Sprintf("v%03d", rounds-1)
	for b := 0; b < 2; b++ {
		rec, err := s.Backup(b).Get("t", "hot")
		if err != nil {
			t.Fatalf("backup %d: %v", b, err)
		}
		if got := string(rec.Fields["f"]); got != want {
			t.Fatalf("backup %d converged to %q, want %q", b, got, want)
		}
	}
}
