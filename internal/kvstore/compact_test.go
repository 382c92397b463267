package kvstore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCompactShrinksLogAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	// A tiny retention window lets compaction drop overwritten versions
	// immediately instead of keeping the MVCC history around.
	s, err := Open(Options{Path: path, Retention: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite a small key set many times and delete some keys: the
	// log grows far beyond the live data.
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			if _, err := s.Put("t", fmt.Sprintf("k%02d", i), fields(fmt.Sprintf("v%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 10; i < 20; i++ {
		if err := s.Delete("t", fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := s.WALSize()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := s.WALSize()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/10 {
		t.Errorf("compaction barely shrank the log: %d → %d", before, after)
	}

	// The store still works after compaction.
	if _, err := s.Put("t", "post", fields("compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the compacted log reproduces exactly the state.
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len("t") != 11 { // k00..k09 + post
		t.Errorf("recovered %d records, want 11", r.Len("t"))
	}
	rec, err := r.Get("t", "k05")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Field("field0")) != "v49" {
		t.Errorf("k05 = %s", rec.Field("field0"))
	}
	if rec.Version != 50 {
		t.Errorf("k05 version = %d, want 50 (preserved through compaction)", rec.Version)
	}
	if _, err := r.Get("t", "k15"); err == nil {
		t.Error("deleted key resurrected by compaction")
	}
	if _, err := r.Get("t", "post"); err != nil {
		t.Errorf("post-compaction write lost: %v", err)
	}
}

// TestCompactConcurrentWithSyncWrites races Compact against writers
// under SyncWrites. Compact swaps each partition's WAL under the
// partition lock, so a writer appends and fsyncs on whichever segment
// is live while it holds that lock; no write may be lost or fail, and
// the idle store must take a write on the post-compaction segment.
func TestCompactConcurrentWithSyncWrites(t *testing.T) {
	s, err := Open(Options{Path: t.TempDir(), Shards: 4, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers = 4
	const rounds = 50
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := s.Put("t", fmt.Sprintf("w%d-k%03d", g, i), fields("v")); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("concurrent compact: %v", err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("writer during compact: %v", err)
	}
	// A write on the now-idle store lands on the post-compaction WAL.
	if _, err := s.Put("t", "final", fields("v")); err != nil {
		t.Fatal(err)
	}
	if got := s.Len("t"); got != writers*rounds+1 {
		t.Errorf("Len = %d, want %d", got, writers*rounds+1)
	}
}

func TestCompactInMemoryIsNoop(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if err := s.Compact(); err != nil {
		t.Errorf("Compact on memory store = %v", err)
	}
	if n, err := s.WALSize(); err != nil || n != 0 {
		t.Errorf("WALSize = %d, %v", n, err)
	}
}

func TestCompactClosedStore(t *testing.T) {
	s := OpenMemory()
	s.Close()
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact after close = %v", err)
	}
	if _, err := s.WALSize(); err != ErrClosed {
		t.Errorf("WALSize after close = %v", err)
	}
}

func TestCompactMultipleTables(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")
	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", "k", fields("1"))
	s.Put("b", "k", fields("2"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ra, err := r.Get("a", "k")
	if err != nil || string(ra.Field("field0")) != "1" {
		t.Errorf("table a after compaction: %v, %v", ra, err)
	}
	rb, err := r.Get("b", "k")
	if err != nil || string(rb.Field("field0")) != "2" {
		t.Errorf("table b after compaction: %v, %v", rb, err)
	}
}
