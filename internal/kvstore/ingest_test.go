package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

func openIngestStore(t *testing.T) *Store {
	t.Helper()
	// Ingest tests read the history beneath ingested versions without a
	// pin, so the store keeps a minute of it.
	s, err := Open(Options{Shards: 4, Retention: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// Ingest must preserve the source records' versions and commit
// timestamps exactly — a CAS handle taken before a migration has to
// stay valid after it.
func TestIngestPreservesVersionAndCommitTS(t *testing.T) {
	s := openIngestStore(t)
	kvs := []BulkKV{
		{Key: "a", Section: canonicalOf(fieldsOf("va")), Version: 7, CommitTS: 100},
		{Key: "b", Section: canonicalOf(fieldsOf("vb")), Version: 3, CommitTS: 101},
	}
	if err := s.Ingest("t", kvs); err != nil {
		t.Fatal(err)
	}
	for _, kv := range kvs {
		rec, err := s.Get("t", kv.Key)
		if err != nil {
			t.Fatalf("Get(%s): %v", kv.Key, err)
		}
		if rec.Version != kv.Version || rec.CommitTS != kv.CommitTS {
			t.Errorf("%s: got version=%d ts=%d, want version=%d ts=%d",
				kv.Key, rec.Version, rec.CommitTS, kv.Version, kv.CommitTS)
		}
		if !bytes.Equal(rec.Image(), kv.Section) {
			t.Errorf("%s: fields not preserved", kv.Key)
		}
	}
	// The imported history is visible to time travel at its own ts.
	if _, err := s.GetAsOf("t", "a", 99); err == nil {
		t.Error("record visible before its ingested commit ts")
	}
	if rec, err := s.GetAsOf("t", "a", 100); err != nil || rec.Version != 7 {
		t.Errorf("as-of read at ingested ts: rec=%v err=%v", rec, err)
	}
	// CAS against the preserved version works.
	if _, err := s.PutIfVersion("t", "a", fieldsOf("va2"), 7); err != nil {
		t.Errorf("CAS against ingested version: %v", err)
	}
}

// Re-running an ingest (a migration retry) must be a no-op: records
// whose head is already at the same or newer commit ts are skipped.
func TestIngestIdempotent(t *testing.T) {
	s := openIngestStore(t)
	kvs := []BulkKV{{Key: "k", Section: canonicalOf(fieldsOf("v1")), Version: 5, CommitTS: 50}}
	if err := s.Ingest("t", kvs); err != nil {
		t.Fatal(err)
	}
	// Local progress after the first ingest.
	ver, err := s.Put("t", "k", fieldsOf("v2"))
	if err != nil {
		t.Fatal(err)
	}
	// The retry must not clobber the newer local write.
	if err := s.Ingest("t", kvs); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != ver || string(rec.Field("f")) != "v2" {
		t.Errorf("re-ingest clobbered newer write: got version=%d fields=%q", rec.Version, rec.Field("f"))
	}
}

// Ingest must advance the destination's commit clock past the
// imported history, or the next local commit would timestamp itself
// into the migrated past.
func TestIngestAdvancesCommitClock(t *testing.T) {
	s := openIngestStore(t)
	const importedTS = 1 << 30
	if err := s.Ingest("t", []BulkKV{{Key: "k", Section: canonicalOf(fieldsOf("v")), Version: 1, CommitTS: importedTS}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "fresh", fieldsOf("w")); err != nil {
		t.Fatal(err)
	}
	rec, err := s.Get("t", "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if rec.CommitTS <= importedTS {
		t.Errorf("local commit ts %d did not advance past imported ts %d", rec.CommitTS, importedTS)
	}
}

// Ingest spreads records across partitions like normal writes do.
func TestIngestCrossesPartitions(t *testing.T) {
	s := openIngestStore(t)
	var kvs []BulkKV
	for i := 0; i < 64; i++ {
		kvs = append(kvs, BulkKV{
			Key:      fmt.Sprintf("user%04d", i),
			Section:  canonicalOf(fieldsOf("x")),
			Version:  1,
			CommitTS: int64(i + 1),
		})
	}
	if err := s.Ingest("t", kvs); err != nil {
		t.Fatal(err)
	}
	if got := s.Len("t"); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
	out, err := s.Scan("t", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 64 {
		t.Fatalf("Scan returned %d records, want 64", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Key >= out[i].Key {
			t.Fatalf("scan out of order at %d: %s >= %s", i, out[i-1].Key, out[i].Key)
		}
	}
}

// Drop removes the keys keep rejects with their whole chains and no
// tombstone: head reads miss, Len falls, retained versions go with
// them, as-of reads below the drop say the history is gone rather than
// absent, and a key written again starts a fresh chain.
func TestDropRemovesKeysWithoutTrace(t *testing.T) {
	s := openIngestStore(t)
	for round := 0; round < 2; round++ {
		for i := 0; i < 20; i++ {
			if _, err := s.Put("t", fmt.Sprintf("k%02d", i), fieldsOf(fmt.Sprintf("v%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete("t", "k02"); err != nil {
		t.Fatal(err)
	}
	before := s.SnapshotTS()
	versions, _ := s.retained()
	even := func(key string) bool { return (key[2]-'0')%2 == 0 }
	n, err := s.Drop("t", func(key string) bool { return !even(key) })
	if err != nil || n != 10 {
		t.Fatalf("Drop = %d, %v; want the 10 even keys, k02's tombstone included", n, err)
	}
	if got := s.Len("t"); got != 10 {
		t.Fatalf("Len after drop = %d, want 10", got)
	}
	// Each of the nine live even keys held one overwritten version, k02
	// two beneath its tombstone.
	if got, _ := s.retained(); got != versions-11 {
		t.Fatalf("retained versions after drop = %d, want %d", got, versions-11)
	}
	out, err := s.ScanVersionsAsOf("t", "", -1, s.SnapshotTS())
	if err != nil || len(out) != 10 {
		t.Fatalf("scan after drop = %d records, %v; want 10", len(out), err)
	}
	for _, kv := range out {
		if even(kv.Key) {
			t.Fatalf("dropped %s still in the index", kv.Key)
		}
	}
	if _, err := s.Get("t", "k04"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("head read of a dropped key: %v, want ErrNotFound", err)
	}
	if _, err := s.GetAsOf("t", "k04", before); !errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("as-of read below the drop: %v, want ErrBelowHorizon", err)
	}
	if rec, err := s.GetAsOf("t", "k05", before); err != nil || string(rec.Field("f")) != "v1" {
		t.Fatalf("kept key's history: %v, %v", rec, err)
	}
	if _, err := s.Insert("t", "k04", fieldsOf("fresh")); err != nil {
		t.Fatalf("insert of a dropped key: %v", err)
	}
	if rec, err := s.Get("t", "k04"); err != nil || rec.Version != 1 || rec.Prev() != nil {
		t.Fatalf("re-inserted dropped key = %+v, %v; want a fresh version 1", rec, err)
	}
	if n, err := s.Drop("absent", func(string) bool { return false }); n != 0 || err != nil {
		t.Fatalf("Drop of an unknown table = %d, %v", n, err)
	}
}

// A drop is logged: the dropped keys stay gone across a reopen and
// through a compaction, and a key written again after its drop replays
// as written.
func TestDropDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Options{Path: path, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%d", i), fieldsOf("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Drop("t", func(key string) bool { return key >= "k4" }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "k0", fieldsOf("again")); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // plain replay, then replay of a compacted log
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(Options{Path: path, Shards: 2}); err != nil {
			t.Fatal(err)
		}
		if got := s.Len("t"); got != 5 {
			t.Fatalf("round %d: Len = %d, want 5", round, got)
		}
		for _, k := range []string{"k1", "k2", "k3"} {
			if _, err := s.Get("t", k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("round %d: dropped %s came back: %v", round, k, err)
			}
		}
		if rec, err := s.Get("t", "k0"); err != nil || rec.Version != 1 || string(rec.Field("f")) != "again" {
			t.Fatalf("round %d: k0 written after its drop = %+v, %v", round, rec, err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
}
