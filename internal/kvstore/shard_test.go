package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// shardKeys returns n keys guaranteed to land in shard want of a
// shards-partition store, so tests can target a specific segment.
func shardKeys(t *testing.T, shards, want, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("key%06d", i)
		if shardOf(k, shards) == want {
			out = append(out, k)
		}
		if i > 1<<20 {
			t.Fatalf("could not find %d keys for shard %d/%d", n, want, shards)
		}
	}
	return out
}

func TestShardedScanOrdered(t *testing.T) {
	s, err := Open(Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 500
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%04d", i)
		want = append(want, k)
		if _, err := s.Insert("t", k, fields(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)

	// Full scan: every key, globally ordered despite living in 8 trees.
	kvs, err := s.Scan("t", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != n {
		t.Fatalf("full scan returned %d records, want %d", len(kvs), n)
	}
	for i, kv := range kvs {
		if kv.Key != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, kv.Key, want[i])
		}
	}

	// Bounded scan from the middle crosses shard boundaries and must
	// still return the globally first count keys ≥ startKey.
	start := want[123]
	kvs, err = s.Scan("t", start, 57)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 57 {
		t.Fatalf("bounded scan returned %d records, want 57", len(kvs))
	}
	for i, kv := range kvs {
		if kv.Key != want[123+i] {
			t.Fatalf("bounded scan[%d] = %q, want %q", i, kv.Key, want[123+i])
		}
	}

	// ForEach visits the same global order.
	var visited []string
	if err := s.ForEach("t", func(key string, _ *VersionedRecord) bool {
		visited = append(visited, key)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(visited) != n {
		t.Fatalf("ForEach visited %d, want %d", len(visited), n)
	}
	if !sort.StringsAreSorted(visited) {
		t.Fatal("ForEach visit order is not globally sorted")
	}
}

func TestShardedWALRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Options{Path: dir, Shards: 4, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := s.Insert("t", fmt.Sprintf("k%04d", i), fields(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Mutate some keys so replay has multi-version history per key.
	for i := 0; i < n; i += 3 {
		if _, err := s.Put("t", fmt.Sprintf("k%04d", i), fields("updated")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := s.Delete("t", fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every shard must have its own non-empty segment.
	for i := 0; i < 4; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("wal-%d.log", i)))
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("segment %d is empty", i)
		}
	}

	r, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Shards(); got != 4 {
		t.Fatalf("recovered Shards() = %d, want 4 (manifest pinned)", got)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", i)
		rec, err := r.Get("t", k)
		if i%7 == 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted %s resurrected: %v", k, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Get(%s) after recovery: %v", k, err)
		}
		want := fmt.Sprint(i)
		if i%3 == 0 {
			want = "updated"
		}
		if string(rec.Field("field0")) != want {
			t.Fatalf("recovered %s = %q, want %q", k, rec.Field("field0"), want)
		}
	}
}

// TestShardedCrashRecoveryTornSegment simulates a crash that tears the
// final WAL frame in one randomly chosen shard: that partition must
// recover the consistent prefix of its own history, and every other
// partition must be untouched.
func TestShardedCrashRecoveryTornSegment(t *testing.T) {
	const shards = 4
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Options{Path: dir, Shards: shards, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	victim := rand.Intn(shards)
	t.Logf("victim shard: %d", victim)

	// Per shard: several durable keys, then one final key whose frame
	// the "crash" will tear in the victim segment.
	durable := make([][]string, shards)
	last := make([]string, shards)
	for sh := 0; sh < shards; sh++ {
		keys := shardKeys(t, shards, sh, 6)
		durable[sh], last[sh] = keys[:5], keys[5]
		for _, k := range durable[sh] {
			if _, err := s.Insert("t", k, fields("durable")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for sh := 0; sh < shards; sh++ {
		if _, err := s.Insert("t", last[sh], fields("tail")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the victim's final frame mid-frame: chop a few bytes off the
	// end of its segment, leaving a partial frame at the tail.
	seg := filepath.Join(dir, fmt.Sprintf("wal-%d.log", victim))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatalf("reopen with torn segment: %v", err)
	}
	defer r.Close()
	for sh := 0; sh < shards; sh++ {
		for _, k := range durable[sh] {
			if _, err := r.Get("t", k); err != nil {
				t.Errorf("shard %d durable key %s lost: %v", sh, k, err)
			}
		}
		_, err := r.Get("t", last[sh])
		if sh == victim {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("victim shard torn tail key %s survived: %v", last[sh], err)
			}
		} else if err != nil {
			t.Errorf("shard %d tail key %s lost to another shard's tear: %v", sh, last[sh], err)
		}
	}
	// The victim partition must be writable after truncation.
	if _, err := r.Put("t", last[victim], fields("rewritten")); err != nil {
		t.Errorf("Put to victim shard after recovery: %v", err)
	}
}

func TestManifestPinsShardCount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Options{Path: dir, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("t", "k", fields("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening with a different requested count must keep the pinned
	// layout — otherwise keys would re-route away from their history.
	r, err := Open(Options{Path: dir, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want manifest-pinned 4", got)
	}
	if _, err := r.Get("t", "k"); err != nil {
		t.Fatalf("Get after pinned reopen: %v", err)
	}
}

func TestLegacyFileStaysSingleShard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(Options{Path: path, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("t", "k", fields("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The existing file layout wins over a multi-shard request.
	r, err := Open(Options{Path: path, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1 (existing file layout)", got)
	}
	if _, err := r.Get("t", "k"); err != nil {
		t.Fatalf("Get after legacy reopen: %v", err)
	}
}

// TestShardedConcurrentScanWrites races cross-shard scans and ForEach
// against writers on every shard; run under -race it checks the merge
// path holds its locking discipline, and every scan result must be
// key-ordered with no key seen twice.
func TestShardedConcurrentScanWrites(t *testing.T) {
	s, err := Open(Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const keys = 128
	for i := 0; i < keys; i++ {
		if _, err := s.Insert("t", fmt.Sprintf("k%04d", i), fields("0")); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%04d", rng.Intn(keys))
				switch i % 3 {
				case 0:
					s.Put("t", k, fields(fmt.Sprint(i)))
				case 1:
					s.Update("t", k, map[string][]byte{"x": []byte("y")})
				case 2:
					s.Get("t", k)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				kvs, err := s.Scan("t", fmt.Sprintf("k%04d", r*13), 64)
				if err != nil {
					t.Errorf("concurrent scan: %v", err)
					return
				}
				for i := 1; i < len(kvs); i++ {
					if kvs[i-1].Key >= kvs[i].Key {
						t.Errorf("scan out of order: %q then %q", kvs[i-1].Key, kvs[i].Key)
						return
					}
				}
				var count int
				s.ForEach("t", func(string, *VersionedRecord) bool {
					count++
					return true
				})
				if count != keys {
					t.Errorf("ForEach snapshot saw %d keys, want %d", count, keys)
					return
				}
			}
		}(r)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestGroupCommitDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(Options{
		Path:        dir,
		Shards:      4,
		SyncWrites:  true,
		GroupCommit: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent writers share group fsyncs within the window.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("w%d-%03d", w, i)
				if _, err := s.Insert("t", k, fields("v")); err != nil {
					t.Errorf("Insert(%s): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Len("t"); got != 8*25 {
		t.Fatalf("recovered %d records, want %d", got, 8*25)
	}
}

func TestShardsOneMatchesLegacyEngine(t *testing.T) {
	// A 1-shard store must behave exactly like the pre-sharding engine:
	// same single-segment file layout, same contents.
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(Options{Path: path, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Insert("t", fmt.Sprintf("k%02d", i), fields(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("single-shard store must write a plain WAL file: %v", err)
	}
	if fi.IsDir() {
		t.Fatal("single-shard store wrote a directory, want a file")
	}
	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len("t") != 50 {
		t.Fatalf("recovered %d records, want 50", r.Len("t"))
	}
}
