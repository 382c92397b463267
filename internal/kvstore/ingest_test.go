package kvstore

import (
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
		{Key: "a", Fields: fieldsOf("va"), Version: 7, CommitTS: 100},
		{Key: "b", Fields: fieldsOf("vb"), Version: 3, CommitTS: 101},
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
		if string(rec.Fields["f"]) != string(kv.Fields["f"]) {
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
	kvs := []BulkKV{{Key: "k", Fields: fieldsOf("v1"), Version: 5, CommitTS: 50}}
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
	if rec.Version != ver || string(rec.Fields["f"]) != "v2" {
		t.Errorf("re-ingest clobbered newer write: got version=%d fields=%q", rec.Version, rec.Fields["f"])
	}
}

// Ingest must advance the destination's commit clock past the
// imported history, or the next local commit would timestamp itself
// into the migrated past.
func TestIngestAdvancesCommitClock(t *testing.T) {
	s := openIngestStore(t)
	const importedTS = 1 << 30
	if err := s.Ingest("t", []BulkKV{{Key: "k", Fields: fieldsOf("v"), Version: 1, CommitTS: importedTS}}); err != nil {
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

// An ingested tombstone must delete the key: migrating a slot back to
// a former owner replays deletes performed elsewhere, or the former
// owner's hidden live records would resurrect.
func TestIngestTombstone(t *testing.T) {
	s := openIngestStore(t)
	if _, err := s.Put("t", "k", fieldsOf("alive")); err != nil {
		t.Fatal(err)
	}
	preTS := s.SnapshotTS()
	if err := s.Ingest("t", []BulkKV{{Key: "k", Deleted: true, Version: 9, CommitTS: preTS + 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("head read after ingested tombstone: %v, want ErrNotFound", err)
	}
	// History below the tombstone stays readable.
	if rec, err := s.GetAsOf("t", "k", preTS); err != nil || string(rec.Fields["f"]) != "alive" {
		t.Fatalf("pre-delete as-of read = %v, %v; want \"alive\"", rec, err)
	}
	// A live scan skips the key; a tombstone-carrying scan ships it.
	if out, err := s.ScanAsOf("t", "", -1, preTS+200); err != nil || len(out) != 0 {
		t.Fatalf("live as-of scan = %d records, %v; want 0", len(out), err)
	}
	out, err := s.ScanVersionsAsOf("t", "", -1, preTS+200)
	if err != nil || len(out) != 1 {
		t.Fatalf("tombstone scan = %d records, %v; want 1", len(out), err)
	}
	if !out[0].Record.Tombstone() || out[0].Record.Version != 9 || out[0].Record.CommitTS != preTS+100 {
		t.Errorf("tombstone scan record = tombstone=%v version=%d ts=%d, want true/9/%d",
			out[0].Record.Tombstone(), out[0].Record.Version, out[0].Record.CommitTS, preTS+100)
	}
	// Idempotence holds for tombstones too.
	if err := s.Ingest("t", []BulkKV{{Key: "k", Deleted: true, Version: 9, CommitTS: preTS + 100}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("head read after re-ingest: %v, want ErrNotFound", err)
	}
}

// Ingested tombstones must survive a WAL replay like any other write.
func TestIngestTombstoneDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Options{Path: path, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("t", []BulkKV{
		{Key: "live", Fields: fieldsOf("v"), Version: 2, CommitTS: 50},
		{Key: "dead", Deleted: true, Version: 4, CommitTS: 60},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Path: path, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, err := s2.Get("t", "live"); err != nil || rec.Version != 2 {
		t.Fatalf("replayed live record = %v, %v; want version 2", rec, err)
	}
	if _, err := s2.Get("t", "dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replayed ingested tombstone: %v, want ErrNotFound", err)
	}
}

// Ingest spreads records across partitions like normal writes do.
func TestIngestCrossesPartitions(t *testing.T) {
	s := openIngestStore(t)
	var kvs []BulkKV
	for i := 0; i < 64; i++ {
		kvs = append(kvs, BulkKV{
			Key:      fmt.Sprintf("user%04d", i),
			Fields:   fieldsOf("x"),
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
