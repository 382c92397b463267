package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotReadsVsWritersVsCompact is the snapshot-consistency
// stress test run by make check's race-enabled short pass. Writers
// mutate pairs of same-partition keys through BatchApply (always
// writing the same value to both members of a pair), churn single keys
// with puts and deletes, and Compact rewrites the WAL segments — all
// while readers continuously BatchGet, Scan and ForEach. Because a
// partition publishes a batch with one atomic root swap, a reader must
// never observe a torn pair (two members with different values), and
// every scan must observe a single consistent root (strictly ordered
// keys, coherent records).
func TestSnapshotReadsVsWritersVsCompact(t *testing.T) {
	const shards = 4
	s, err := Open(Options{
		Path:       filepath.Join(t.TempDir(), "wal"),
		Shards:     shards,
		SyncWrites: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Build same-partition key pairs: both members of a pair hash to
	// one shard, so a BatchApply updating both publishes exactly one
	// new root and readers see the pair move atomically.
	const pairs = 16
	type pair struct{ a, b string }
	var pairSet []pair
	byShard := map[int][]string{}
	for i := 0; len(pairSet) < pairs; i++ {
		k := fmt.Sprintf("pair%05d", i)
		sh := shardOf(k, shards)
		if len(byShard[sh]) > 0 {
			prev := byShard[sh][len(byShard[sh])-1]
			byShard[sh] = byShard[sh][:len(byShard[sh])-1]
			pairSet = append(pairSet, pair{a: prev, b: k})
		} else {
			byShard[sh] = append(byShard[sh], k)
		}
	}
	for _, pr := range pairSet {
		for _, k := range []string{pr.a, pr.b} {
			if _, err := s.Put("t", k, map[string][]byte{"v": []byte("0")}); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var torn atomic.Int64
	fail := func(format string, args ...any) {
		torn.Add(1)
		t.Errorf(format, args...)
	}

	// Pair writers: both members always move to the same value in one
	// same-partition batch.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 1; ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < len(pairSet); i += 2 {
					pr := pairSet[i]
					val := []byte(fmt.Sprintf("%d.%d", w, c))
					res := s.BatchApply([]Mutation{
						{Op: MutPut, Table: "t", Key: pr.a, Fields: map[string][]byte{"v": val}, Expect: AnyVersion},
						{Op: MutPut, Table: "t", Key: pr.b, Fields: map[string][]byte{"v": val}, Expect: AnyVersion},
					})
					for _, r := range res {
						if r.Err != nil {
							fail("pair write: %v", r.Err)
							return
						}
					}
				}
			}
		}(w)
	}

	// Churn writer: single-key puts and deletes exercise the COW
	// insert and delete paths (splits, merges, borrows) while scans run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 0; ; c++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("churn%05d", c%500)
			if c%3 == 2 {
				if err := s.Delete("t", k); err != nil && !errors.Is(err, ErrNotFound) {
					fail("churn delete: %v", err)
					return
				}
			} else if _, err := s.Put("t", k, map[string][]byte{"v": []byte("c")}); err != nil {
				fail("churn put: %v", err)
				return
			}
		}
	}()

	// Compactor: continuously swaps fresh WAL segments in under the
	// write locks; the lock-free read path must never notice.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				fail("compact: %v", err)
				return
			}
		}
	}()

	checkPair := func(ra, rb *VersionedRecord, src string, pr pair) {
		if ra == nil || rb == nil {
			return
		}
		if !bytes.Equal(ra.Field("v"), rb.Field("v")) {
			fail("%s: torn pair %s=%q / %s=%q", src, pr.a, ra.Field("v"), pr.b, rb.Field("v"))
		}
	}

	// Readers: BatchGet each pair (one snapshot per partition), full
	// Scans (consistent multi-partition cut) and ForEach (key order).
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, pr := range pairSet {
					res := s.BatchGet([]GetReq{{Table: "t", Key: pr.a}, {Table: "t", Key: pr.b}})
					if res[0].Err != nil || res[1].Err != nil {
						fail("batchget: %v / %v", res[0].Err, res[1].Err)
						return
					}
					checkPair(res[0].Record, res[1].Record, "batchget", pr)
				}
				kvs, err := s.Scan("t", "", -1)
				if err != nil {
					fail("scan: %v", err)
					return
				}
				seen := map[string]*VersionedRecord{}
				for i, kv := range kvs {
					if i > 0 && kvs[i-1].Key >= kv.Key {
						fail("scan out of order: %q then %q", kvs[i-1].Key, kv.Key)
						return
					}
					seen[kv.Key] = kv.Record
				}
				for _, pr := range pairSet {
					checkPair(seen[pr.a], seen[pr.b], "scan", pr)
				}
				prev := ""
				if err := s.ForEach("t", func(key string, rec *VersionedRecord) bool {
					if prev != "" && key <= prev {
						fail("foreach out of order: %q then %q", prev, key)
						return false
					}
					prev = key
					return rec != nil
				}); err != nil {
					fail("foreach: %v", err)
					return
				}
			}
		}()
	}

	d := 800 * time.Millisecond
	if testing.Short() {
		d = 400 * time.Millisecond
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	if torn.Load() > 0 {
		t.Fatalf("%d consistency violations", torn.Load())
	}
}
