package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Read-scaling benchmarks for the lock-free snapshot read path, run as
//
//	go test -bench 'ReadHeavy|GetScanParallel' -cpu 1,4,16,32 ./internal/kvstore
//
// Each benchmark has two sub-paths: "new" exercises the engine
// directly (wait-free snapshot reads, no clone), "old" reproduces the
// seed engine's read path on top of it — a per-shard RWMutex around
// every operation plus a deep clone of every returned record — so the
// before/after comparison stays runnable after the old path is gone.

const benchReadKeys = 100_000

func populatedStore(b *testing.B, shards int) (*Store, []string) {
	b.Helper()
	s := OpenMemoryShards(shards)
	keys := make([]string, benchReadKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%06d", i)
		if _, err := s.Put("t", keys[i], map[string][]byte{
			"field0": []byte("value-of-a-realistic-length-000"),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { s.Close() })
	return s, keys
}

// seedPathStore emulates the pre-snapshot engine's read path: every
// operation takes the key's per-shard RWMutex (writes exclusively) and
// every returned record is deep-cloned, exactly the two costs the
// lock-free snapshot path removed. It runs over the current engine so
// the tree maintenance underneath is identical in both sub-paths.
type seedPathStore struct {
	s  *Store
	mu []sync.RWMutex
}

// deepCopy is the seed's clone of a returned record: version, commit ts
// and a private copy of every field.
func deepCopy(v *VersionedRecord) *VersionedRecord {
	out := &VersionedRecord{Version: v.Version, CommitTS: v.CommitTS, Fields: make(map[string][]byte)}
	v.Range(func(name string, val []byte) bool {
		out.Fields[name] = append([]byte(nil), val...)
		return true
	})
	return out
}

func newSeedPathStore(s *Store) *seedPathStore {
	return &seedPathStore{s: s, mu: make([]sync.RWMutex, s.Shards())}
}

func (l *seedPathStore) lockFor(key string) *sync.RWMutex {
	return &l.mu[shardOf(key, len(l.mu))]
}

func (l *seedPathStore) get(table, key string) (*VersionedRecord, error) {
	m := l.lockFor(key)
	m.RLock()
	defer m.RUnlock()
	rec, err := l.s.Get(table, key)
	if err != nil {
		return nil, err
	}
	return deepCopy(rec), nil
}

func (l *seedPathStore) put(table, key string, fields map[string][]byte) error {
	m := l.lockFor(key)
	m.Lock()
	defer m.Unlock()
	_, err := l.s.Put(table, key, fields)
	return err
}

func (l *seedPathStore) scan(table, start string, count int) ([]VersionedKV, error) {
	for i := range l.mu {
		l.mu[i].RLock()
	}
	defer func() {
		for i := range l.mu {
			l.mu[i].RUnlock()
		}
	}()
	kvs, err := l.s.Scan(table, start, count)
	if err != nil {
		return nil, err
	}
	for i := range kvs {
		kvs[i].Record = deepCopy(kvs[i].Record)
	}
	return kvs, nil
}

// TestGetZeroAlloc pins the acceptance criterion: a hit on the
// snapshot Get path performs zero heap allocations.
func TestGetZeroAlloc(t *testing.T) {
	s := OpenMemoryShards(4)
	defer s.Close()
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%06d", i)
		if _, err := s.Put("t", keys[i], fields("v")); err != nil {
			t.Fatal(err)
		}
	}
	var i int
	allocs := testing.AllocsPerRun(4096, func() {
		rec, err := s.Get("t", keys[i%len(keys)])
		if err != nil || rec == nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkReadHeavy is a 95/5 get/put mix over a populated table —
// the read-dominated YCSB shape the paper's Tier-5 runs use.
func BenchmarkReadHeavy(b *testing.B) {
	for _, path := range []string{"new", "old"} {
		b.Run(path, func(b *testing.B) {
			s, keys := populatedStore(b, 8)
			old := newSeedPathStore(s)
			val := map[string][]byte{"field0": []byte("updated-value-0000000000000000")}
			var ctr atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				n := ctr.Add(1) * 7919
				for pb.Next() {
					n++
					key := keys[int(n%benchReadKeys)]
					if n%20 == 0 {
						if path == "new" {
							if _, err := s.Put("t", key, val); err != nil {
								b.Fatal(err)
							}
						} else if err := old.put("t", key, val); err != nil {
							b.Fatal(err)
						}
						continue
					}
					var rec *VersionedRecord
					var err error
					if path == "new" {
						rec, err = s.Get("t", key)
					} else {
						rec, err = old.get("t", key)
					}
					if err != nil || rec == nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkGetScanParallel mixes point gets with short ordered scans
// (90/10), the CEW read-modify-write pre-read plus validation shape.
func BenchmarkGetScanParallel(b *testing.B) {
	for _, path := range []string{"new", "old"} {
		b.Run(path, func(b *testing.B) {
			s, keys := populatedStore(b, 8)
			old := newSeedPathStore(s)
			var ctr atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				n := ctr.Add(1) * 104729
				for pb.Next() {
					n++
					key := keys[int(n%benchReadKeys)]
					if n%10 == 0 {
						var kvs []VersionedKV
						var err error
						if path == "new" {
							kvs, err = s.Scan("t", key, 10)
						} else {
							kvs, err = old.scan("t", key, 10)
						}
						if err != nil || len(kvs) == 0 {
							b.Fatalf("scan from %s: %d records, %v", key, len(kvs), err)
						}
						continue
					}
					var rec *VersionedRecord
					var err error
					if path == "new" {
						rec, err = s.Get("t", key)
					} else {
						rec, err = old.get("t", key)
					}
					if err != nil || rec == nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
