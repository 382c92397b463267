package kvstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/obs"
)

func fieldsOf(v string) map[string][]byte {
	return map[string][]byte{"f": []byte(v)}
}

// TestBatchGetOrderAndPerItemErrors checks that a cross-shard batch
// read returns results positionally, with per-item ErrNotFound for
// misses and data for hits.
func TestBatchGetOrderAndPerItemErrors(t *testing.T) {
	s := OpenMemoryShards(4)
	defer s.Close()
	for i := 0; i < 20; i++ {
		if _, err := s.Put("t", fmt.Sprintf("key%02d", i), fieldsOf(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	reqs := []GetReq{
		{Table: "t", Key: "key07"},
		{Table: "t", Key: "missing"},
		{Table: "t", Key: "key00"},
		{Table: "nosuch", Key: "key00"},
		{Table: "t", Key: "key19"},
	}
	res := s.BatchGet(reqs)
	if len(res) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(res), len(reqs))
	}
	for _, i := range []int{0, 2, 4} {
		if res[i].Err != nil {
			t.Fatalf("item %d: unexpected error %v", i, res[i].Err)
		}
		want := map[int]string{0: "7", 2: "0", 4: "19"}[i]
		if got := string(res[i].Record.Field("f")); got != want {
			t.Fatalf("item %d: got %q want %q", i, got, want)
		}
	}
	for _, i := range []int{1, 3} {
		if !errors.Is(res[i].Err, ErrNotFound) {
			t.Fatalf("item %d: got %v, want ErrNotFound", i, res[i].Err)
		}
	}
}

// TestBatchApplyMixedOutcomes drives puts, merges, conditional
// failures and deletes through one batch and checks per-item results.
func TestBatchApplyMixedOutcomes(t *testing.T) {
	s := OpenMemoryShards(4)
	defer s.Close()
	if _, err := s.Put("t", "a", fieldsOf("v1")); err != nil {
		t.Fatal(err)
	}
	res := s.BatchApply([]Mutation{
		{Op: MutPut, Table: "t", Key: "b", Fields: fieldsOf("new"), Expect: AnyVersion},
		{Op: MutPut, Table: "t", Key: "a", Fields: fieldsOf("x"), Expect: MustNotExist}, // exists → ErrExists
		{Op: MutUpdate, Table: "t", Key: "a", Fields: map[string][]byte{"g": []byte("merged")}},
		{Op: MutUpdate, Table: "t", Key: "nope", Fields: fieldsOf("x")}, // missing → ErrNotFound
		{Op: MutDelete, Table: "t", Key: "a", Expect: 999},              // wrong version → mismatch
		{Op: MutPut, Table: "t", Key: "c", Fields: fieldsOf("c1"), Expect: MustNotExist},
		{Op: MutDelete, Table: "t", Key: "c", Expect: AnyVersion},
	})
	if res[0].Err != nil || res[0].Version != 1 {
		t.Fatalf("item 0: %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrExists) {
		t.Fatalf("item 1: got %v, want ErrExists", res[1].Err)
	}
	if res[2].Err != nil || res[2].Version != 2 {
		t.Fatalf("item 2: %+v", res[2])
	}
	if !errors.Is(res[3].Err, ErrNotFound) {
		t.Fatalf("item 3: got %v, want ErrNotFound", res[3].Err)
	}
	if !errors.Is(res[4].Err, ErrVersionMismatch) {
		t.Fatalf("item 4: got %v, want ErrVersionMismatch", res[4].Err)
	}
	if res[5].Err != nil || res[6].Err != nil {
		t.Fatalf("items 5/6: %+v %+v", res[5], res[6])
	}
	// The merge landed and preserved the old field.
	rec, err := s.Get("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Field("f")) != "v1" || string(rec.Field("g")) != "merged" {
		t.Fatalf("merged record: %v", rec.Project(nil))
	}
	// The delete landed.
	if _, err := s.Get("t", "c"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key: %v", err)
	}
}

// TestBatchApplyDurableAcrossReopen writes a cross-shard batch under
// sync+group-commit and checks every item survives a reopen — the
// single durability wait per partition must cover the whole group.
func TestBatchApplyDurableAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "walz")
	opts := Options{Path: dir, Shards: 4, SyncWrites: true, GroupCommit: time.Millisecond}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var muts []Mutation
	for i := 0; i < 32; i++ {
		muts = append(muts, Mutation{
			Op: MutPut, Table: "t", Key: fmt.Sprintf("key%02d", i),
			Fields: fieldsOf(fmt.Sprint(i)), Expect: AnyVersion,
		})
	}
	for i, r := range s.BatchApply(muts) {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len("t"); got != 32 {
		t.Fatalf("reopened store has %d records, want 32", got)
	}
	for i := 0; i < 32; i++ {
		rec, err := s2.Get("t", fmt.Sprintf("key%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Field("f")) != fmt.Sprint(i) {
			t.Fatalf("key%02d: %v", i, rec.Project(nil))
		}
	}
}

// TestBatchConcurrentWithCompactAndScan races batched writers against
// Compact and cross-shard BatchGet/Scan readers (run under -race; the
// tier-1 gate does). Every batch item must either succeed or fail
// with a recognized per-item error, and scans must always observe
// well-formed records.
func TestBatchConcurrentWithCompactAndScan(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "walz")
	s, err := Open(Options{Path: dir, Shards: 4, SyncWrites: true, GroupCommit: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 64
	keyOf := func(i int) string { return fmt.Sprintf("key%03d", i%keys) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var batches atomic.Int64

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var muts []Mutation
				for i := 0; i < 8; i++ {
					muts = append(muts, Mutation{
						Op: MutPut, Table: "t", Key: keyOf(g*17 + n*8 + i),
						Fields: fieldsOf(fmt.Sprint(n)), Expect: AnyVersion,
					})
				}
				for i, r := range s.BatchApply(muts) {
					if r.Err != nil {
						t.Errorf("writer %d item %d: %v", g, i, r.Err)
						return
					}
				}
				batches.Add(1)
			}
		}(g)
	}
	wg.Add(1)
	go func() { // cross-shard batched reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var reqs []GetReq
			for i := 0; i < 16; i++ {
				reqs = append(reqs, GetReq{Table: "t", Key: keyOf(i * 5)})
			}
			for i, r := range s.BatchGet(reqs) {
				if r.Err != nil && !errors.Is(r.Err, ErrNotFound) {
					t.Errorf("reader item %d: %v", i, r.Err)
					return
				}
				if r.Err == nil && len(r.Record.Field("f")) == 0 {
					t.Errorf("reader item %d: empty record", i)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // scanner
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			kvs, err := s.Scan("t", "", -1)
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			for i := 1; i < len(kvs); i++ {
				if kvs[i-1].Key >= kvs[i].Key {
					t.Errorf("scan out of order: %q >= %q", kvs[i-1].Key, kvs[i].Key)
					return
				}
			}
		}
	}()

	deadline := time.After(300 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			if err := s.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if batches.Load() == 0 {
		t.Fatal("no write batches completed")
	}
}

// TestOnePublishPerTouchedTable pins the write section's publish rule
// on a one-shard store: a write publishes each table it changed
// exactly once, however many keys it wrote there, and a write that
// changed nothing publishes nothing.
func TestOnePublishPerTouchedTable(t *testing.T) {
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	puts := func(expect uint64, tables ...string) []Mutation {
		muts := make([]Mutation, len(keys))
		for i, k := range keys {
			muts[i] = Mutation{Op: MutPut, Table: tables[i%len(tables)], Key: k, Fields: fieldsOf("v"), Expect: expect}
		}
		return muts
	}
	applied := func(want bool, rs []MutResult) error {
		for _, r := range rs {
			if (r.Err == nil) != want {
				return fmt.Errorf("item error %v, want success %v", r.Err, want)
			}
		}
		return nil
	}
	bulk := make([]BulkKV, len(keys))
	for i := range bulk {
		bulk[i] = BulkKV{Key: fmt.Sprintf("in%02d", i)}
	}
	for _, c := range []struct {
		name  string
		write func(s *Store) error
		want  int64
	}{
		{"Put", func(s *Store) error { _, err := s.Put("t", "new", fieldsOf("v")); return err }, 1},
		{"failed PutIfVersion", func(s *Store) error {
			if _, err := s.PutIfVersion("t", keys[0], fieldsOf("v"), 99); !errors.Is(err, ErrVersionMismatch) {
				return fmt.Errorf("PutIfVersion = %v, want ErrVersionMismatch", err)
			}
			return nil
		}, 0},
		{"BatchApply of 16 puts to one table", func(s *Store) error { return applied(true, s.BatchApply(puts(AnyVersion, "t"))) }, 1},
		{"BatchApply across two tables", func(s *Store) error { return applied(true, s.BatchApply(puts(AnyVersion, "t", "u"))) }, 2},
		{"BatchApply whose every item fails", func(s *Store) error { return applied(false, s.BatchApply(puts(MustNotExist, "t"))) }, 0},
		{"Ingest of 16 records", func(s *Store) error { return s.Ingest("t", bulk) }, 1},
	} {
		reg := obs.NewRegistry()
		s, err := Open(Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, err := s.Put("t", k, fieldsOf("v")); err != nil {
				t.Fatal(err)
			}
		}
		swaps := reg.Counter("kvstore_snapshot_root_swaps_total", "shard", "0")
		before := swaps.Value()
		if err := c.write(s); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if got := swaps.Value() - before; got != c.want {
			t.Errorf("%s: %d root swaps, want %d", c.name, got, c.want)
		}
		s.Close()
	}
}

// TestBatchOnClosedStore checks every item of a batch against a
// closed store reports ErrClosed rather than panicking or hanging.
func TestBatchOnClosedStore(t *testing.T) {
	s := OpenMemoryShards(2)
	s.Close()
	for _, r := range s.BatchGet([]GetReq{{Table: "t", Key: "a"}, {Table: "t", Key: "b"}}) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("get: %v", r.Err)
		}
	}
	for _, r := range s.BatchApply([]Mutation{{Op: MutPut, Table: "t", Key: "a", Expect: AnyVersion}}) {
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("apply: %v", r.Err)
		}
	}
}

// BenchmarkStoreBatchApply compares batched against single-op writes
// on the partitioned engine (no WAL, pure lock economics).
func BenchmarkStoreBatchApply(b *testing.B) {
	for _, size := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			s := OpenMemoryShards(8)
			defer s.Close()
			muts := make([]Mutation, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range muts {
					muts[j] = Mutation{
						Op: MutPut, Table: "t", Key: fmt.Sprintf("key%04d", (i+j)%1024),
						Fields: fieldsOf("v"), Expect: AnyVersion,
					}
				}
				if size == 1 {
					if _, err := s.Put(muts[0].Table, muts[0].Key, muts[0].Fields); err != nil {
						b.Fatal(err)
					}
					continue
				}
				for _, r := range s.BatchApply(muts) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.SetBytes(0)
			b.ReportMetric(float64(size), "items/batch")
		})
	}
}
