package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"ycsbt/internal/obs"
)

// refVersion is one version of the brute-force model.
type refVersion struct {
	ts      int64
	ver     uint64
	deleted bool
}

// refScan is the sorted reference the lazy merge must agree with: every
// key's newest version ≤ ts, keys ≥ start, in order, cut at count.
func refScan(model map[string][]refVersion, start string, count int, ts int64, tombstones bool) []refVersion {
	keys := make([]string, 0, len(model))
	for k := range model {
		if k >= start {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var out []refVersion
	for _, k := range keys {
		if count >= 0 && len(out) >= count {
			break
		}
		vs := model[k]
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].ts <= ts {
				if !vs[i].deleted || tombstones {
					out = append(out, vs[i])
				}
				break
			}
		}
	}
	return out
}

// TestLazyMergeMatchesSortedReference: random shard counts, writes,
// deletes, as-of timestamps and counts, all three scan flavours (and
// ForEach) against the brute-force model.
func TestLazyMergeMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		shards := 1 + r.Intn(9)
		s := openKeepingHistory(shards)
		model := map[string][]refVersion{}
		nkeys := 1 + r.Intn(400)
		var stamps []int64
		for op := 0; op < 3*nkeys; op++ {
			key := fmt.Sprintf("k%04d", r.Intn(nkeys))
			vs := model[key]
			live := len(vs) > 0 && !vs[len(vs)-1].deleted
			if live && r.Intn(4) == 0 {
				if err := s.Delete("t", key); err != nil {
					t.Fatal(err)
				}
			} else if _, err := s.Put("t", key, map[string][]byte{"n": []byte(strconv.Itoa(op))}); err != nil {
				t.Fatal(err)
			}
			head := s.parts[shardOf(key, shards)].tables["t"].get(key)
			model[key] = append(vs, refVersion{ts: head.CommitTS, ver: head.Version, deleted: head.deleted})
			if r.Intn(10) == 0 {
				stamps = append(stamps, head.CommitTS)
			}
		}
		stamps = append(stamps, 0, s.SnapshotTS())
		check := func(what string, got []VersionedKV, err error, want []refVersion) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, what, err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d (%d shards) %s: %d records, want %d", seed, shards, what, len(got), len(want))
			}
			for i := range got {
				if got[i].Record.CommitTS != want[i].ts || got[i].Record.Version != want[i].ver || got[i].Record.deleted != want[i].deleted {
					t.Fatalf("seed %d %s: record %d = %s ts %d, want ts %d", seed, what, i, got[i].Key, got[i].Record.CommitTS, want[i].ts)
				}
				if i > 0 && got[i-1].Key >= got[i].Key {
					t.Fatalf("seed %d %s: keys out of order at %d", seed, what, i)
				}
			}
		}
		for trial := 0; trial < 40; trial++ {
			start := fmt.Sprintf("k%04d", r.Intn(nkeys+1))
			if r.Intn(5) == 0 {
				start = ""
			}
			count := []int{0, 1, len(model), -1, r.Intn(len(model) + 2)}[r.Intn(5)]
			ts := stamps[r.Intn(len(stamps))]
			what := fmt.Sprintf("start %q count %d ts %d", start, count, ts)
			got, err := s.Scan("t", start, count)
			check("Scan "+what, got, err, refScan(model, start, count, headTS, false))
			got, err = s.ScanAsOf("t", start, count, ts)
			check("ScanAsOf "+what, got, err, refScan(model, start, count, ts, false))
			got, err = s.ScanVersionsAsOf("t", start, count, ts)
			check("ScanVersionsAsOf "+what, got, err, refScan(model, start, count, ts, true))
		}
		var each []VersionedKV
		err := s.ForEach("t", func(key string, rec *VersionedRecord) bool {
			each = append(each, VersionedKV{Key: key, Record: rec})
			return true
		})
		check("ForEach", each, err, refScan(model, "", -1, headTS, false))
		s.Close()
	}
}

// TestScanVisitsCountPlusShards: a 10-record scan over 8 shards lands
// on at most 10 + 8 index entries — the ten it returns and the one each
// partition was primed with — where collecting count from every
// partition first visited up to 80. Trees built by single puts and by
// one Ingest batch both.
func TestScanVisitsCountPlusShards(t *testing.T) {
	for _, batch := range []bool{false, true} {
		reg := obs.NewRegistry()
		s, err := Open(Options{Shards: 8, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		kvs := make([]BulkKV, 20000)
		for i := range kvs {
			kvs[i] = BulkKV{Key: fmt.Sprintf("user%06d", i), Section: canonicalOf(map[string][]byte{"f": {1}})}
		}
		if batch {
			err = s.Ingest("t", kvs)
		} else {
			for _, kv := range kvs {
				if _, err = s.Put("t", kv.Key, map[string][]byte{"f": {1}}); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		visited := func() float64 {
			var sum float64
			for sh := 0; sh < 8; sh++ {
				sum += reg.Histogram("kvstore_snapshot_scan_len", obs.CountBuckets, "shard", strconv.Itoa(sh)).Sum()
			}
			return sum
		}
		for _, start := range []string{"", "user000100", "user012345", "user019995", "zzz"} {
			before := visited()
			got, err := s.Scan("t", start, 10)
			if err != nil {
				t.Fatal(err)
			}
			if n := visited() - before; n > float64(len(got)+8) {
				t.Errorf("batch=%v start %q: scan returned %d records and visited %.0f entries, want ≤ %d", batch, start, len(got), n, len(got)+8)
			}
		}
		s.Close()
	}
}

// TestSnapIterWalksDeepTrees: one partition, three tree levels, built
// by inserts in random order — every seek lands on the right item
// whether it stops in a leaf, on a separator, or past the end, and the
// walk from there crosses every kind of node boundary.
func TestSnapIterWalksDeepTrees(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	r := rand.New(rand.NewSource(3))
	keys := make([]string, 9000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", 2*i) // odd keys stay absent
	}
	for _, i := range r.Perm(len(keys)) {
		if _, err := s.Put("t", keys[i], map[string][]byte{"f": nil}); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.parts[0].tables["t"].depth(); d < 3 {
		t.Fatalf("tree depth %d, want ≥ 3", d)
	}
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(2*len(keys) + 2)
		start := fmt.Sprintf("k%05d", n)
		want := keys[min((n+1)/2, len(keys)):]
		want = want[:min(len(want), 1+r.Intn(200))]
		got, err := s.Scan("t", start, len(want))
		if err != nil || len(got) != len(want) {
			t.Fatalf("scan from %s: %d records (%v), want %d", start, len(got), err, len(want))
		}
		for i := range want {
			if got[i].Key != want[i] {
				t.Fatalf("scan from %s: record %d = %s, want %s", start, i, got[i].Key, want[i])
			}
		}
	}
}

// BenchmarkStoreScan is the engine cell of the scan workload: count
// records from a random key of 20 000 over 8 shards (`make bench-quick`
// runs it; EXPERIMENTS.md "Encode once" has the parent's numbers).
func BenchmarkStoreScan(b *testing.B) {
	s := OpenMemoryShards(8)
	defer s.Close()
	fields := ycsbFields(10, 100, 0)
	for i := 0; i < 20000; i++ {
		if _, err := s.Put("t", fmt.Sprintf("user%08d", i), fields); err != nil {
			b.Fatal(err)
		}
	}
	for _, count := range []int{10, 100} {
		b.Run(strconv.Itoa(count), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kvs, err := s.Scan("t", fmt.Sprintf("user%08d", (i*7919)%19000), count)
				if err != nil || len(kvs) != count {
					b.Fatalf("scan = %d records, %v", len(kvs), err)
				}
			}
		})
	}
}

// BenchmarkStorePutRecord stores the benchmark's record (ten 100-byte
// fields) over an existing key in a volatile store.
func BenchmarkStorePutRecord(b *testing.B) {
	s := OpenMemoryShards(8)
	defer s.Close()
	fields := ycsbFields(10, 100, 0)
	for i := 0; i < 20000; i++ {
		s.Put("t", fmt.Sprintf("user%08d", i), fields)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("t", fmt.Sprintf("user%08d", (i*7919)%20000), fields); err != nil {
			b.Fatal(err)
		}
	}
}
