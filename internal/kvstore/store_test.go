package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func fields(s string) map[string][]byte {
	return map[string][]byte{"field0": []byte(s)}
}

func TestStoreCRUD(t *testing.T) {
	s := OpenMemory()
	defer s.Close()

	v, err := s.Insert("t", "k", fields("v1"))
	if err != nil || v != 1 {
		t.Fatalf("Insert = %d, %v", v, err)
	}
	if _, err := s.Insert("t", "k", fields("v2")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Insert = %v", err)
	}
	got, err := s.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || string(got.Field("field0")) != "v1" {
		t.Errorf("Get = %+v", got)
	}
	// Returned records are shared immutable snapshots; Project yields a
	// map of the caller's own, which it may add to without reaching
	// engine memory.
	priv := got.Project(nil)
	priv["field0"] = []byte("X")
	priv["added"] = []byte("y")
	got2, _ := s.Get("t", "k")
	if string(got2.Field("field0")) != "v1" || got2.Field("added") != nil {
		t.Error("Project aliased engine memory")
	}
	v, err = s.Put("t", "k", fields("v3"))
	if err != nil || v != 2 {
		t.Fatalf("Put = %d, %v", v, err)
	}
	v, err = s.Update("t", "k", map[string][]byte{"extra": []byte("e")})
	if err != nil || v != 3 {
		t.Fatalf("Update = %d, %v", v, err)
	}
	got3, _ := s.Get("t", "k")
	if string(got3.Field("field0")) != "v3" || string(got3.Field("extra")) != "e" {
		t.Errorf("merged record = %+v", got3.Project(nil))
	}
	if _, err := s.Update("t", "missing", fields("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Update missing = %v", err)
	}
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	if err := s.Delete("t", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete = %v", err)
	}
	if _, err := s.Get("other", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing table = %v", err)
	}
}

func TestStoreConditionalPut(t *testing.T) {
	s := OpenMemory()
	defer s.Close()

	v1, err := s.PutIfVersion("t", "k", fields("a"), MustNotExist)
	if err != nil || v1 != 1 {
		t.Fatalf("create = %d, %v", v1, err)
	}
	// Wrong version fails and does not mutate.
	if _, err := s.PutIfVersion("t", "k", fields("b"), 99); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale CAS = %v", err)
	}
	got, _ := s.Get("t", "k")
	if string(got.Field("field0")) != "a" || got.Version != 1 {
		t.Errorf("failed CAS mutated record: %+v", got)
	}
	// Right version succeeds.
	v2, err := s.PutIfVersion("t", "k", fields("b"), 1)
	if err != nil || v2 != 2 {
		t.Fatalf("CAS = %d, %v", v2, err)
	}
	// CAS on a missing key fails with version mismatch.
	if _, err := s.PutIfVersion("t", "nope", fields("x"), 1); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("CAS on missing key = %v", err)
	}
	// Conditional delete.
	if err := s.DeleteIfVersion("t", "k", 1); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("stale conditional delete = %v", err)
	}
	if err := s.DeleteIfVersion("t", "k", 2); err != nil {
		t.Errorf("conditional delete = %v", err)
	}
}

func TestStoreCASIsAtomic(t *testing.T) {
	// Many goroutines CAS-increment one counter; every increment must
	// be preserved (no lost updates through the conditional path).
	s := OpenMemory()
	defer s.Close()
	if _, err := s.Insert("t", "ctr", map[string][]byte{"n": []byte("0")}); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					cur, err := s.Get("t", "ctr")
					if err != nil {
						t.Error(err)
						return
					}
					var n int
					fmt.Sscanf(string(cur.Field("n")), "%d", &n)
					next := map[string][]byte{"n": []byte(fmt.Sprintf("%d", n+1))}
					if _, err := s.PutIfVersion("t", "ctr", next, cur.Version); err == nil {
						break
					} else if !errors.Is(err, ErrVersionMismatch) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	got, _ := s.Get("t", "ctr")
	if string(got.Field("n")) != fmt.Sprintf("%d", workers*per) {
		t.Errorf("counter = %s, want %d", got.Field("n"), workers*per)
	}
	if got.Version != uint64(workers*per+1) {
		t.Errorf("version = %d, want %d", got.Version, workers*per+1)
	}
}

func TestStoreScanAndForEach(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	for i := 0; i < 20; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%02d", i), fields(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := s.Scan("t", "k05", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 || kvs[0].Key != "k05" || kvs[2].Key != "k07" {
		t.Errorf("Scan = %+v", kvs)
	}
	// Unlimited scan.
	kvs, _ = s.Scan("t", "", -1)
	if len(kvs) != 20 {
		t.Errorf("unlimited scan = %d records", len(kvs))
	}
	// Scan of a missing table is empty, not an error.
	kvs, err = s.Scan("missing", "", 10)
	if err != nil || kvs != nil {
		t.Errorf("missing-table scan = %v, %v", kvs, err)
	}
	count := 0
	if err := s.ForEach("t", func(string, *VersionedRecord) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Errorf("ForEach visited %d", count)
	}
	// Early stop.
	count = 0
	s.ForEach("t", func(string, *VersionedRecord) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("ForEach early stop visited %d", count)
	}
	if s.Len("t") != 20 || s.Len("missing") != 0 {
		t.Errorf("Len = %d/%d", s.Len("t"), s.Len("missing"))
	}
}

func TestStoreTables(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	s.Put("a", "k", fields("1"))
	s.Put("b", "k", fields("2"))
	names := s.Tables()
	if len(names) != 2 {
		t.Errorf("Tables = %v", names)
	}
	got, err := s.Get("a", "k")
	if err != nil || string(got.Field("field0")) != "1" {
		t.Errorf("tables not isolated: %+v, %v", got, err)
	}
}

// TestStoreClosed drives every Engine entry point that reads or writes
// data against a closed multi-shard store: each must fail with
// ErrClosed, item by item for the batches, rather than panic or hang.
func TestStoreClosed(t *testing.T) {
	s := OpenMemoryShards(4)
	if _, err := s.Put("t", "k", fields("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
	reqs := []GetReq{{Table: "t", Key: "a"}, {Table: "t", Key: "b"}, {Table: "t", Key: "k"}}
	muts := []Mutation{
		{Op: MutPut, Table: "t", Key: "a", Fields: fields("v"), Expect: AnyVersion},
		{Op: MutUpdate, Table: "t", Key: "k", Fields: fields("v")},
		{Op: MutDelete, Table: "t", Key: "b", Expect: AnyVersion},
	}
	gets := func(rs []GetResult) error {
		for _, r := range rs {
			if !errors.Is(r.Err, ErrClosed) {
				return r.Err
			}
		}
		return ErrClosed
	}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Get", func() error { _, err := s.Get("t", "k"); return err }},
		{"GetAsOf", func() error { _, err := s.GetAsOf("t", "k", s.SnapshotTS()); return err }},
		{"BatchGet", func() error { return gets(s.BatchGet(reqs)) }},
		{"BatchGetAsOf", func() error { return gets(s.BatchGetAsOf(reqs, s.SnapshotTS())) }},
		{"Scan", func() error { _, err := s.Scan("t", "", 1); return err }},
		{"ScanAsOf", func() error { _, err := s.ScanAsOf("t", "", 1, s.SnapshotTS()); return err }},
		{"Put", func() error { _, err := s.Put("t", "k", fields("v")); return err }},
		{"Insert", func() error { _, err := s.Insert("t", "new", fields("v")); return err }},
		{"PutIfVersion", func() error { _, err := s.PutIfVersion("t", "k", fields("v"), 1); return err }},
		{"Update", func() error { _, err := s.Update("t", "k", fields("v")); return err }},
		{"Delete", func() error { return s.Delete("t", "k") }},
		{"DeleteIfVersion", func() error { return s.DeleteIfVersion("t", "k", 1) }},
		{"BatchApply", func() error {
			for _, r := range s.BatchApply(muts) {
				if !errors.Is(r.Err, ErrClosed) {
					return r.Err
				}
			}
			return ErrClosed
		}},
		{"Ingest", func() error { return s.Ingest("t", []BulkKV{{Key: "a"}, {Key: "b"}}) }},
		{"Drop", func() error { _, err := s.Drop("t", func(string) bool { return false }); return err }},
		{"ForEach", func() error { return s.ForEach("t", func(string, *VersionedRecord) bool { return true }) }},
		{"Sync", s.Sync},
	} {
		if err := c.call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after close = %v, want ErrClosed", c.name, err)
		}
	}
}

func TestWALDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")

	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("t", "a", fields("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "b", fields("2")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Update("t", "a", map[string][]byte{"x": []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("t", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.Get("t", "a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Field("field0")) != "1" || string(got.Field("x")) != "y" {
		t.Errorf("recovered record = %+v", got.Project(nil))
	}
	if got.Version != 2 {
		t.Errorf("recovered version = %d, want 2", got.Version)
	}
	if _, err := r.Get("t", "b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key resurrected: %v", err)
	}
	// Versions continue from the recovered point.
	v, err := r.Put("t", "a", fields("3"))
	if err != nil || v != 3 {
		t.Errorf("post-recovery Put = %d, %v", v, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")

	s, err := Open(Options{Path: path, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Insert("t", "good", fields("1"))
	s.Close()

	// Simulate a crash mid-append: garbage partial frame at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x05, 0x00, 0x00, 0x00, 0xde, 0xad}) // truncated frame
	f.Close()

	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer r.Close()
	if _, err := r.Get("t", "good"); err != nil {
		t.Errorf("good prefix lost: %v", err)
	}
	// The store must be writable after truncation.
	if _, err := r.Put("t", "new", fields("2")); err != nil {
		t.Errorf("Put after torn-tail recovery: %v", err)
	}
}

func TestWALCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.wal")

	s, _ := Open(Options{Path: path, SyncWrites: true})
	s.Insert("t", "a", fields("1"))
	s.Insert("t", "b", fields("2"))
	s.Close()

	// Flip a byte in the last frame's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Get("t", "a"); err != nil {
		t.Errorf("first record lost: %v", err)
	}
	if _, err := r.Get("t", "b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt record replayed: %v", err)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []walRecord{
		{Op: walPutTS, Table: "t", Key: "k", Version: 7, CommitTS: 99, Image: canonicalOf(map[string][]byte{"a": []byte("1"), "b": nil})},
		{Op: walDeleteTS, Table: "usertable", Key: "user123", Version: 3, CommitTS: 1 << 40},
		{Op: walPutTS, Table: "", Key: "", Version: 0},
	}
	for _, want := range cases {
		got, err := decodeWALRecord(encodeWALRecord(want))
		if err != nil {
			t.Fatalf("round trip %+v: %v", want, err)
		}
		if got.Op != want.Op || got.Table != want.Table || got.Key != want.Key || got.Version != want.Version || got.CommitTS != want.CommitTS {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
		if !bytes.Equal(got.Image, want.Image) {
			t.Errorf("image = %q, want %q", got.Image, want.Image)
		}
	}
}

func TestWALDecodeErrors(t *testing.T) {
	if _, err := decodeWALRecord(nil); err == nil {
		t.Error("empty payload should fail")
	}
	if _, err := decodeWALRecord([]byte{walPutTS}); err == nil {
		t.Error("truncated payload should fail")
	}
	// Valid record plus trailing garbage must fail.
	p := append(encodeWALRecord(walRecord{Op: walDeleteTS, Table: "t", Key: "k"}), 0xFF)
	if _, err := decodeWALRecord(p); err == nil {
		t.Error("trailing bytes should fail")
	}
	// Only the TS op codes decode; 1 and 2 were the pre-MVCC frames.
	if _, err := decodeWALRecord(encodeWALRecord(walRecord{Op: 1, Table: "t", Key: "k"})); err == nil {
		t.Error("unknown op code should fail")
	}
}

// appendRawFrame appends one checksummed frame around payload to the
// log at path, as the WAL writer would.
func appendRawFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
}

// openRefused asserts Open fails on the log at path with ErrCorruptWAL
// and leaves its bytes as they were.
func openRefused(t *testing.T, path string) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := Open(Options{Path: path}); !errors.Is(err, ErrCorruptWAL) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Open = %v, want ErrCorruptWAL", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused log changed: %d bytes before, %d after", len(before), len(after))
	}
}

// A checksummed frame that will not decode is corruption, not a torn
// tail: truncating there would drop the committed frame behind it.
func TestWALUndecodableFrameRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(Options{Path: path, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Insert("t", "a", fields("1"))
	s.Close()
	appendRawFrame(t, path, []byte{walPutTS, 0xFF}) // key length past the end
	appendRawFrame(t, path, encodeWALRecord(walRecord{Op: walPutTS, Table: "t", Key: "b", Version: 1, CommitTS: 100, Image: canonicalOf(fields("2"))}))
	openRefused(t, path)
}

// An empty frame is what a zero-filled tail reads as: a torn tail,
// truncated away.
func TestWALZeroFilledTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.wal")
	s, err := Open(Options{Path: path, SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Insert("t", "a", fields("1"))
	s.Close()
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, path, nil)

	r, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("reopen with zero-filled tail: %v", err)
	}
	defer r.Close()
	if _, err := r.Get("t", "a"); err != nil {
		t.Errorf("good prefix lost: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != good.Size() {
		t.Errorf("size after reopen = %d, want %d", st.Size(), good.Size())
	}
}

func TestStoreConcurrentMixed(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", (w*300+i)%100)
				switch i % 4 {
				case 0:
					s.Put("t", key, fields("v"))
				case 1:
					s.Get("t", key)
				case 2:
					s.Scan("t", key, 5)
				case 3:
					s.Delete("t", key)
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkStorePut(b *testing.B) {
	s := OpenMemory()
	defer s.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put("t", fmt.Sprintf("key%08d", i%100000), fields("value"))
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := OpenMemory()
	defer s.Close()
	for i := 0; i < 100000; i++ {
		s.Put("t", fmt.Sprintf("key%08d", i), fields("value"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Get("t", fmt.Sprintf("key%08d", i%100000))
			i++
		}
	})
}

func BenchmarkStorePutWAL(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Path: filepath.Join(dir, "bench.wal")})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put("t", fmt.Sprintf("key%08d", i%100000), fields("value"))
	}
}
