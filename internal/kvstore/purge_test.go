package kvstore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/obs"
)

// indexed reports whether key has an entry — live or tombstone — in
// table's published index.
func indexed(s *Store, table, key string) bool {
	snap := s.part(key).tableSnap(table)
	return snap != nil && snap.get(key) != nil
}

// indexEntries counts table's published index entries, tombstones
// included, across every partition.
func indexEntries(s *Store, table string) int {
	n := 0
	for _, p := range s.parts {
		if snap := p.tableSnap(table); snap != nil {
			snap.ascend("", func(string, *VersionedRecord) bool { n++; return true })
		}
	}
	return n
}

// TestDeletePurgesInline: at retention 0 with nothing pinned, a
// tombstone is at the reclaim horizon as it is written, so the key
// leaves the index with its delete — a single delete and a batch share
// alike — and Vacuum finds nothing left to purge. A key written again
// starts a fresh chain above every version the purge took.
func TestDeletePurgesInline(t *testing.T) {
	s := OpenMemoryShards(2)
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%d", i), vfields("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("t", "k0"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteIfVersion("t", "k1", 1); err != nil {
		t.Fatal(err)
	}
	for i, r := range s.BatchApply([]Mutation{
		{Op: MutDelete, Table: "t", Key: "k2", Expect: AnyVersion},
		{Op: MutDelete, Table: "t", Key: "k3", Expect: 1},
	}) {
		if r.Err != nil {
			t.Fatalf("batch delete %d: %v", i, r.Err)
		}
	}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		if indexed(s, "t", k) {
			t.Errorf("%s is still in the index after its delete", k)
		}
		if _, err := s.Get("t", k); !errors.Is(err, ErrNotFound) {
			t.Errorf("head read of deleted %s: %v, want ErrNotFound", k, err)
		}
	}
	if n := indexEntries(s, "t"); n != 0 || s.Len("t") != 0 {
		t.Fatalf("table holds %d index entries, %d live, want 0 and 0", n, s.Len("t"))
	}
	if _, keys := s.Vacuum(); keys != 0 {
		t.Fatalf("Vacuum purged %d keys after inline purges, want 0", keys)
	}
	if err := s.Delete("t", "k0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete of a purged key: %v, want ErrNotFound", err)
	}
	if v, err := s.Insert("t", "k0", vfields("again")); err != nil || v <= 2 {
		t.Fatalf("insert of a purged key = v%d, %v; want above the purged tombstone's v2", v, err)
	}
}

// TestPurgedKeyNeverRepeatsAVersion is the ABA check behind the purged-
// version mark: a client that read a key at some version, then saw the
// key deleted, purged and written again up to that version number, must
// not get its stale conditional write in. The new chain starts above the
// purged tombstone, in memory and across a restart that purges the
// replayed tombstone again.
func TestPurgedKeyNeverRepeatsAVersion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if _, err := s.Put("t", key, vfields("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Put("t", key, vfields("y")); err != nil {
			t.Fatal(err)
		}
	}
	held, _ := s.Get("t", "a") // v2, read by a client that writes later
	if err := s.Delete("t", "a"); err != nil {
		t.Fatal(err)
	}
	if indexed(s, "t", "a") {
		t.Fatal("sanity: the tombstone was not purged")
	}
	reinsert(t, s, "a", held.Version)

	if err := s.Delete("t", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// b's tombstone is in the log, not in the index: the reopened store
	// purges it again and starts b's new chain above it.
	if s, err = Open(Options{Path: dir}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reinsert(t, s, "b", held.Version)
}

// reinsert writes key (of table "t") again until its version reaches
// held, a version a client read before the key was deleted and purged,
// and fails the test unless a conditional write or delete at held is
// refused.
func reinsert(t *testing.T, s *Store, key string, held uint64) {
	t.Helper()
	for {
		v, err := s.Put("t", key, vfields("new"))
		if err != nil {
			t.Fatal(err)
		}
		if v >= held {
			break
		}
	}
	if _, err := s.PutIfVersion("t", key, vfields("stale"), held); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("conditional write of %s at the version read before the purge: %v, want ErrVersionMismatch", key, err)
	}
	if err := s.DeleteIfVersion("t", key, held); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("conditional delete of %s at the version read before the purge: %v, want ErrVersionMismatch", key, err)
	}
}

// TestCompactKeepsThePurgedVersionMark: a compacted log holds no
// tombstone of a purged key — b's was purged with its delete, c's is
// dropped by the compaction itself once its pin is gone — so it logs
// the table's purged-version mark instead, and a restart after the
// compaction still starts both keys' new chains above their old ones.
func TestCompactKeepsThePurgedVersionMark(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	held := map[string]uint64{}
	for _, key := range []string{"b", "c"} {
		for _, v := range []string{"x", "y"} {
			if held[key], err = s.Put("t", key, vfields(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete("t", "b"); err != nil {
		t.Fatal(err)
	}
	_, release := s.Pin()
	if err := s.Delete("t", "c"); err != nil {
		t.Fatal(err)
	}
	release()
	if indexed(s, "t", "b") || !indexed(s, "t", "c") {
		t.Fatal("sanity: want b purged with its delete and c's tombstone held in the index")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(Options{Path: dir}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, key := range []string{"b", "c"} {
		reinsert(t, s, key, held[key])
	}
}

// TestPinnedReadAcrossAPurgedIncarnation: a key deleted before a pinned
// snapshot, purged, and written again after it reads as absent at the
// snapshot — not as below the horizon, which a pinned reader must never
// see — although its new chain starts above version 1.
func TestPinnedReadAcrossAPurgedIncarnation(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Put("t", "k", vfields("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	ts, release := s.Pin()
	defer release()
	v, err := s.Insert("t", "k", vfields("new"))
	if err != nil || v <= 2 {
		t.Fatalf("insert after the purge = v%d, %v; want above v2", v, err)
	}
	if _, err := s.GetAsOf("t", "k", ts); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("pinned read of the key between its chains: %v, want plain ErrNotFound", err)
	}
	if kvs, err := s.ScanAsOf("t", "", -1, ts); err != nil || len(kvs) != 0 {
		t.Fatalf("pinned scan between the chains = %v, %v; want empty", kvs, err)
	}
	if rec, err := s.GetAsOf("t", "k", s.SnapshotTS()); err != nil || string(rec.Field("v")) != "new" {
		t.Fatalf("read of the new chain = %v, %v", rec, err)
	}
}

// TestHeldTombstoneWaitsForVacuum: a tombstone a pin, the vacuum floor
// or a retention window can still see stays in the index — the held
// reader reads through it, and Vacuum leaves it — until the hold goes;
// then the next Vacuum purges it.
func TestHeldTombstoneWaitsForVacuum(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		// hold holds the horizon at a ts drawn after the key's put and
		// returns that ts and the release.
		hold func(s *Store) (int64, func())
	}{
		{"pin", Options{}, func(s *Store) (int64, func()) { return s.Pin() }},
		{"vacuum floor", Options{}, func(s *Store) (int64, func()) {
			ts := s.SnapshotTS()
			s.SetVacuumFloor(ts)
			return ts, func() { s.SetVacuumFloor(0) }
		}},
		{"retention", Options{Retention: 200 * time.Millisecond}, func(s *Store) (int64, func()) {
			return s.SnapshotTS(), func() { time.Sleep(250 * time.Millisecond) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Put("t", "k", vfields("held")); err != nil {
				t.Fatal(err)
			}
			ts, release := tc.hold(s)
			if err := s.Delete("t", "k"); err != nil {
				t.Fatal(err)
			}
			if !indexed(s, "t", "k") {
				t.Fatal("held tombstone left the index with its delete")
			}
			if rec, err := s.GetAsOf("t", "k", ts); err != nil || string(rec.Field("v")) != "held" {
				t.Fatalf("held read through the tombstone = %v, %v; want \"held\"", rec, err)
			}
			if _, err := s.Get("t", "k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("head read of the deleted key: %v, want ErrNotFound", err)
			}
			if _, keys := s.Vacuum(); keys != 0 {
				t.Fatalf("Vacuum purged %d keys while held, want 0", keys)
			}
			release()
			if _, keys := s.Vacuum(); keys != 1 {
				t.Fatalf("Vacuum purged %d keys after the hold went, want 1", keys)
			}
			if indexed(s, "t", "k") {
				t.Fatal("tombstone still in the index after Vacuum")
			}
		})
	}
}

// TestInlinePurgeCountsVacuumed: the versions a delete takes out of the
// index with it — the tombstone and the chain below it — count in
// kvstore_versions_vacuumed_total with no Vacuum run.
func TestInlinePurgeCountsVacuumed(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vacuumed := reg.Counter("kvstore_versions_vacuumed_total", "shard", "0")
	if _, err := s.Put("t", "k", vfields("x")); err != nil {
		t.Fatal(err)
	}
	_, release := s.Pin()
	if _, err := s.Put("t", "k", vfields("y")); err != nil {
		t.Fatal(err)
	}
	release()
	if n := vacuumed.Value(); n != 0 {
		t.Fatalf("vacuumed %d versions before the delete, want 0 (the pin held the overwritten one)", n)
	}
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if n := vacuumed.Value(); n != 3 {
		t.Fatalf("vacuumed %d versions after the delete, want 3: the tombstone and both versions below it", n)
	}
	var out bytes.Buffer
	if err := reg.Export(&out); err != nil {
		t.Fatal(err)
	}
	if want := `kvstore_versions_vacuumed_total{shard="0"} 3`; !strings.Contains(out.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

// TestPurgeHorizonIsPerTable: a tombstone purged from one table (here
// the txn layer's "_tsr") raises that table's purge horizon only. An
// as-of read of another table at a ts older than the purge answers as
// if nothing had been purged — a key present then reads, a key absent
// then is plain ErrNotFound, and a scan returns what was there — while
// the purged table's own as-of misses below the purge stay
// ErrBelowHorizon. A partition-wide horizon fails the first half.
func TestPurgeHorizonIsPerTable(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Put("usertable", "a", vfields("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("_tsr", "t1", vfields("C")); err != nil {
		t.Fatal(err)
	}
	ts := s.SnapshotTS()
	if err := s.Delete("_tsr", "t1"); err != nil {
		t.Fatal(err)
	}
	if indexed(s, "_tsr", "t1") {
		t.Fatal("sanity: the TSR tombstone was not purged")
	}

	if rec, err := s.GetAsOf("usertable", "a", ts); err != nil || string(rec.Field("v")) != "1" {
		t.Errorf("GetAsOf of a user key = %v, %v; want \"1\"", rec, err)
	}
	if _, err := s.GetAsOf("usertable", "b", ts); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrBelowHorizon) {
		t.Errorf("GetAsOf of a user key absent then: %v, want plain ErrNotFound", err)
	}
	res := s.BatchGetAsOf([]GetReq{{"usertable", "a"}, {"usertable", "b"}}, ts)
	if res[0].Err != nil || errors.Is(res[1].Err, ErrBelowHorizon) {
		t.Errorf("BatchGetAsOf of user keys: %v, %v; want a hit and a plain miss", res[0].Err, res[1].Err)
	}
	kvs, err := s.ScanAsOf("usertable", "", -1, ts)
	if err != nil || len(kvs) != 1 || kvs[0].Key != "a" {
		t.Errorf("ScanAsOf of the user table = %v, %v; want [a]", kvs, err)
	}

	if _, err := s.GetAsOf("_tsr", "t1", ts); !errors.Is(err, ErrBelowHorizon) {
		t.Errorf("GetAsOf of the purged TSR below its purge: %v, want ErrBelowHorizon", err)
	}
	if _, err := s.ScanAsOf("_tsr", "", -1, ts); !errors.Is(err, ErrBelowHorizon) {
		t.Errorf("ScanAsOf of the purged table below its purge: %v, want ErrBelowHorizon", err)
	}
	if _, err := s.GetAsOf("_tsr", "t1", s.SnapshotTS()); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrBelowHorizon) {
		t.Errorf("GetAsOf of the purged TSR after its delete: %v, want plain ErrNotFound", err)
	}
}

// walDigest hashes every file of a store's WAL directory.
func walDigest(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRecoveryPurgesDeadKeys: replay rebuilds the tombstones the log
// holds, and Open drops the keys whose tombstone is at or below the
// horizon, so a restart brings back none of the deletes. The live keys
// are intact, a read below the open is ErrBelowHorizon for a purged
// key, and the log itself is untouched.
func TestRecoveryPurgesDeadKeys(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Options{Path: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%02d", i), vfields(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	before := s.SnapshotTS()
	for i := 0; i < 40; i += 2 {
		if err := s.Delete("t", fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	digest := walDigest(t, dir)

	s, err = Open(Options{Path: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := indexEntries(s, "t"); n != 20 {
		t.Fatalf("recovered index holds %d entries, want the 20 live keys", n)
	}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%02d", i)
		rec, err := s.Get("t", k)
		switch {
		case i%2 == 0 && !errors.Is(err, ErrNotFound):
			t.Errorf("deleted %s after recovery: %v, want ErrNotFound", k, err)
		case i%2 == 1 && (err != nil || string(rec.Field("v")) != fmt.Sprint(i)):
			t.Errorf("live %s after recovery = %v, %v", k, rec, err)
		}
	}
	if _, err := s.GetAsOf("t", "k00", before); !errors.Is(err, ErrBelowHorizon) {
		t.Errorf("as-of read of a purged key before the open: %v, want ErrBelowHorizon", err)
	}
	if got := walDigest(t, dir); got != digest {
		t.Error("reopening rewrote the WAL")
	}
}
