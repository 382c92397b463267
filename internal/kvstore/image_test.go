package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"ycsbt/internal/db"
)

// ycsbFields is the benchmark's record shape: n fields of size bytes.
func ycsbFields(n, size int, seed byte) map[string][]byte {
	fields := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		fields[fmt.Sprintf("field%d", i)] = bytes.Repeat([]byte{'a' + seed + byte(i)}, size)
	}
	return fields
}

// canonicalOf is the reference encoder: names sorted, then the layout.
func canonicalOf(fields map[string][]byte) []byte {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		buf = appendBytes(appendString(buf, name), fields[name])
	}
	return buf
}

// checkImage asserts what a stored version is: an image and no map.
// The image is the canonical encoding of want, its shape names it, and
// every reader — Field, Range, Project — gives want back, with values
// that live inside the image and have no spare capacity.
func checkImage(t *testing.T, what string, rec *VersionedRecord, want map[string][]byte) {
	t.Helper()
	img := rec.Image()
	switch {
	case rec.Fields != nil:
		t.Fatalf("%s: stored version carries a field map", what)
	case img == nil:
		t.Fatalf("%s: no image", what)
	case !bytes.Equal(img, canonicalOf(want)):
		t.Fatalf("%s: image is not the canonical encoding of what was written\n got %q\nwant %q", what, img, canonicalOf(want))
	}
	if rec.shape == nil || len(rec.shape.names) != len(want) {
		t.Fatalf("%s: shape %v does not name the image's %d fields", what, rec.shape, len(want))
	}
	got := rec.Project(nil)
	if !reflect.DeepEqual(got, want) && len(want) > 0 {
		t.Fatalf("%s: Project(nil) = %q, want %q", what, got, want)
	}
	var names []string
	rec.Range(func(name string, v []byte) bool {
		names = append(names, name)
		if !bytes.Equal(rec.Field(name), want[name]) {
			t.Fatalf("%s: Field(%s) = %q, want %q", what, name, rec.Field(name), want[name])
		}
		if len(v) > 0 && !bytes.Contains(img, v) {
			t.Fatalf("%s: %s is not in the image", what, name)
		}
		if len(v) != cap(v) {
			t.Fatalf("%s: %s has spare capacity %d: an append would write into its neighbour", what, name, cap(v)-len(v))
		}
		return true
	})
	if !sort.StringsAreSorted(names) || len(names) != len(want) || !slices.Equal(names, rec.shape.names) {
		t.Fatalf("%s: Range gave names %q, shape %q", what, names, rec.shape.names)
	}
}

// TestImageEqualsMapOnEveryWritePath drives each way a version gets
// stored — put, insert, conditional put, BatchApply, Ingest,
// merge-update — and checks that each one published an image (the
// canonical encoding of the map written) and no map; then it reopens
// the store, replaying the WAL and then a compacted one, and checks
// replay rebuilt the same image-only versions. ForEach alone hands out
// maps: copies, with Fields set beside the same image.
func TestImageEqualsMapOnEveryWritePath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	s, err := Open(Options{Path: dir, Shards: 4, Retention: time.Minute}) // reads the merge-updated record's Prev
	if err != nil {
		t.Fatal(err)
	}
	must := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put("t", "put", ycsbFields(10, 100, 0)))
	must(s.Insert("t", "insert", ycsbFields(3, 7, 1)))
	must(s.PutIfVersion("t", "cond", ycsbFields(1, 0, 2), MustNotExist))
	must(s.Put("t", "empty", map[string][]byte{}))
	for _, r := range s.BatchApply([]Mutation{
		{Op: MutPut, Table: "t", Key: "batch1", Fields: ycsbFields(10, 100, 3), Expect: AnyVersion},
		{Op: MutPut, Table: "t", Key: "batch2", Fields: ycsbFields(2, 300, 4), Expect: MustNotExist},
	}) {
		must(r.Version, r.Err)
	}
	unsorted := AppendFields(nil, ycsbFields(20, 10, 6)) // map order: not canonical
	if canon, err := db.CheckFields(unsorted); err != nil || canon {
		t.Fatalf("test section canonical=%v, %v; want a non-canonical one", canon, err)
	}
	if err := s.Ingest("ing", []BulkKV{{Key: "a", Section: canonicalOf(ycsbFields(10, 100, 5))}, {Key: "b", Section: unsorted}, {Key: "none"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("t", []BulkKV{{Key: "ingest", Section: canonicalOf(ycsbFields(10, 100, 7)), Version: 9, CommitTS: 5}}); err != nil {
		t.Fatal(err)
	}
	must(s.Put("t", "gone", ycsbFields(1, 10, 9)))
	if _, err := s.Drop("t", func(key string) bool { return key != "gone" }); err != nil {
		t.Fatal(err)
	}
	must(s.Put("t", "updated", ycsbFields(10, 100, 8)))
	must(s.Update("t", "updated", map[string][]byte{"field3": []byte("patched"), "zzz": []byte("new")}))

	must(s.Put("t", "patched", ycsbFields(10, 100, 10)))
	for _, r := range s.BatchApply([]Mutation{{Op: MutUpdate, Table: "t", Key: "patched", Fields: map[string][]byte{"field0": []byte("batched"), "a": nil}}}) {
		must(r.Version, r.Err)
	}

	updated := ycsbFields(10, 100, 8)
	updated["field3"], updated["zzz"] = []byte("patched"), []byte("new")
	patched := ycsbFields(10, 100, 10)
	patched["field0"], patched["a"] = []byte("batched"), []byte{}
	type stored struct{ table, key string }
	wants := map[stored]map[string][]byte{
		{"t", "put"}: ycsbFields(10, 100, 0), {"t", "insert"}: ycsbFields(3, 7, 1), {"t", "cond"}: ycsbFields(1, 0, 2),
		{"t", "empty"}: {}, {"t", "batch1"}: ycsbFields(10, 100, 3), {"t", "batch2"}: ycsbFields(2, 300, 4),
		{"ing", "a"}: ycsbFields(10, 100, 5), {"ing", "b"}: ycsbFields(20, 10, 6), {"ing", "none"}: {},
		{"t", "ingest"}: ycsbFields(10, 100, 7), {"t", "updated"}: updated, {"t", "patched"}: patched,
	}
	check := func(when string) {
		t.Helper()
		for k, want := range wants {
			rec, err := s.Get(k.table, k.key)
			if err != nil {
				t.Fatal(err)
			}
			checkImage(t, when+" "+k.key, rec, want)
		}
		// The version a merge-update replaced is an image of its own.
		if prev := mustGet(t, s, "t", "updated").Prev(); prev != nil {
			checkImage(t, when+" updated's previous version", prev, ycsbFields(10, 100, 8))
		}
		// ForEach hands out copies that carry the map beside the image.
		for _, table := range []string{"t", "ing"} {
			n := 0
			if err := s.ForEach(table, func(key string, rec *VersionedRecord) bool {
				n++
				stored := mustGet(t, s, table, key)
				want := wants[struct{ table, key string }{table, key}]
				if rec == stored || rec.Fields == nil || rec.Version != stored.Version || !bytes.Equal(rec.Image(), stored.Image()) {
					t.Errorf("%s: ForEach handed out %s/%s as %p (Fields %v), stored %p", when, table, key, rec, rec.Fields != nil, stored)
				} else if len(want) > 0 && !reflect.DeepEqual(rec.Fields, want) {
					t.Errorf("%s: ForEach %s/%s Fields = %q, want %q", when, table, key, rec.Fields, want)
				}
				return true
			}); err != nil || n != s.Len(table) {
				t.Fatalf("%s: ForEach(%s) visited %d of %d: %v", when, table, n, s.Len(table), err)
			}
		}
	}
	check("live")
	images := map[stored][]byte{}
	for k := range wants {
		images[k] = mustGet(t, s, k.table, k.key).Image()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ { // plain replay, then replay of a compacted log
		s, err = Open(Options{Path: dir})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("replayed (round %d)", round))
		for k := range wants {
			if !bytes.Equal(mustGet(t, s, k.table, k.key).Image(), images[k]) {
				t.Errorf("round %d: %s/%s re-encoded differently after reopen", round, k.table, k.key)
			}
		}
		if _, err := s.Get("t", "gone"); err == nil {
			t.Errorf("round %d: dropped key came back live", round)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoredRecordDoesNotAliasCallers: nothing a caller still holds —
// the map or section it passed in, the slices in it, a map it read out
// with Project — reaches a stored record.
func TestStoredRecordDoesNotAliasCallers(t *testing.T) {
	s := OpenMemoryShards(2)
	defer s.Close()
	in := ycsbFields(10, 100, 0)
	want := canonicalOf(in)
	if _, err := s.Put("t", "k", in); err != nil {
		t.Fatal(err)
	}
	sec := canonicalOf(in)
	if err := s.Ingest("ing", []BulkKV{{Key: "k", Section: sec}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "merged", in); err != nil {
		t.Fatal(err)
	}
	patch := map[string][]byte{"field3": []byte("patched")}
	if _, err := s.Update("t", "merged", patch); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.Get("t", "k")
	projected := rec.Project(nil)

	for name, v := range in { // the caller scribbles over everything it owns
		for i := range v {
			v[i] = '!'
		}
		in[name] = append(v, "tail"...)
	}
	in["extra"] = []byte("x")
	delete(in, "field0")
	patch["field3"][0] = '!'
	for i := range sec {
		sec[i] = '?'
	}
	for name := range projected { // the map is the caller's; its values are not
		projected[name] = []byte("replaced")
	}
	projected["extra"] = nil

	for _, table := range []string{"t", "ing"} {
		rec, err := s.Get(table, "k")
		if err != nil {
			t.Fatal(err)
		}
		checkImage(t, table, rec, ycsbFields(10, 100, 0))
		if !bytes.Equal(rec.Image(), want) {
			t.Errorf("%s/k changed under the caller's edits", table)
		}
	}
	if rec, _ := s.Get("t", "merged"); string(rec.Field("field3")) != "patched" {
		t.Errorf("merge-updated value changed under the caller's edit: %q", rec.Field("field3"))
	}
}

// TestPutBuildsOneSlab pins what storing a record allocates: the
// record and one slab, its image — where it used to be a Go map too
// (four allocations at ten entries), and before that an allocation per
// value. A merge-update is one slab as well.
func TestPutBuildsOneSlab(t *testing.T) {
	p := newPartition(nil, newStore(1, 0))
	fields := ycsbFields(10, 100, 0)
	p.buildImage(fields) // warm the shape
	if per := testing.AllocsPerRun(200, func() { p.buildImage(fields) }); per > 1 {
		t.Errorf("building a 10-field record = %.0f allocs, want 1 (the image)", per)
	}
	cur := p.newRecord(1, 1, fields)
	patch := map[string][]byte{"field3": []byte("patched")}
	if per := testing.AllocsPerRun(200, func() { p.mergeImage(cur, patch) }); per > 1 {
		t.Errorf("merging one field into a 10-field record = %.0f allocs, want 1 (the image)", per)
	}
	s := OpenMemoryShards(8)
	defer s.Close()
	for i := 0; i < 2000; i++ {
		s.Put("t", fmt.Sprintf("user%06d", i), fields)
	}
	// The rest of a Put is the copy-on-write path through the tree and
	// the published snapshot, the same as before.
	if per := testing.AllocsPerRun(500, func() { s.Put("t", "user001234", fields) }); per > 11 {
		t.Errorf("10-field Put = %.0f allocs, want ≤ 11 (15 with a map, 24 with a copy per value)", per)
	}
}

// TestBuildFieldsSharesNames: versions of one shape stored in one
// partition — whichever way they arrived — share one set of name
// strings, and the map a reader projects out of them uses those strings
// as its keys.
func TestBuildFieldsSharesNames(t *testing.T) {
	p := newPartition(nil, newStore(1, 0))
	a := p.newRecord(1, 1, ycsbFields(10, 4, 0))
	// The second caller's names are fresh strings with equal contents.
	fresh := map[string][]byte{}
	for name, v := range ycsbFields(10, 4, 1) {
		fresh[string(append([]byte(nil), name...))] = v
	}
	b := p.newRecord(1, 1, fresh)
	c := p.imageRecord(1, 1, canonicalOf(ycsbFields(10, 4, 2)))
	d := &VersionedRecord{}
	d.image, d.shape = p.mergeImage(c, map[string][]byte{"field1": []byte("x")})
	for _, r := range []*VersionedRecord{b, c, d} {
		if r.shape != a.shape {
			t.Errorf("a version of the same names got its own shape %q", r.shape.names)
		}
	}
	if got := p.newRecord(1, 1, map[string][]byte{"other": nil}); got.shape == a.shape || p.shapes[(p.shapeNext+recentShapes-1)%recentShapes] != got.shape {
		t.Errorf("a version of other names shares the old shape, or did not become the newest one")
	}
	for name := range d.Project(nil) {
		i := sort.SearchStrings(a.shape.names, name)
		if unsafe.StringData(name) != unsafe.StringData(a.shape.names[i]) {
			t.Errorf("projected key %q is a new string, not the shape's", name)
		}
	}
	if per := testing.AllocsPerRun(100, func() { d.Project(nil) }); per > 4 {
		t.Errorf("projecting a 10-field version = %.0f allocs, want the map's own (4 at ten entries) and no names", per)
	}
}

// oldWALRecord is a logged mutation as the WAL encoder before images
// took it: the fields as a map.
type oldWALRecord struct {
	Op       byte
	Table    string
	Key      string
	Version  uint64
	CommitTS int64
	Fields   map[string][]byte
}

// oldAppendWALRecord is the parent's WAL encoder, kept to write a
// segment the way a store before this layout did: fields in whatever
// order the map yields them.
func oldAppendWALRecord(buf []byte, rec oldWALRecord, order []string) []byte {
	buf = append(buf, rec.Op)
	buf = appendString(buf, rec.Table)
	buf = appendString(buf, rec.Key)
	buf = binary.AppendUvarint(buf, rec.Version)
	if rec.Op == walPutTS || rec.Op == walDeleteTS {
		buf = binary.AppendUvarint(buf, uint64(rec.CommitTS))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Fields)))
	for _, f := range order {
		buf = appendString(buf, f)
		buf = appendBytes(buf, rec.Fields[f])
	}
	return buf
}

// TestParentWrittenWALReplays: a segment written by the old encoder —
// names in map order — replays to the same records, each with a
// canonical image.
func TestParentWrittenWALReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	r := rand.New(rand.NewSource(7))
	type want struct {
		ver    uint64
		fields map[string][]byte
	}
	wants := map[string]want{}
	frame := func(rec oldWALRecord) {
		order := make([]string, 0, len(rec.Fields))
		for name := range rec.Fields {
			order = append(order, name)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(order))) // never the canonical order
		r.Shuffle(len(order)/2, func(i, j int) { order[i], order[j] = order[j], order[i] })
		payload := oldAppendWALRecord(nil, rec, order)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		w.Write(hdr[:])
		w.Write(payload)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("user%03d", i)
		fields := ycsbFields(1+i%12, 20, byte(i%5))
		frame(oldWALRecord{Op: walPutTS, Table: "t", Key: key, Version: 1, CommitTS: int64(100 + i), Fields: fields})
		wants[key] = want{1, fields}
	}
	frame(oldWALRecord{Op: walDeleteTS, Table: "t", Key: "user007", Version: 2, CommitTS: 500})
	delete(wants, "user007")
	frame(oldWALRecord{Op: walPutTS, Table: "t", Key: "user008", Version: 2, CommitTS: 501, Fields: ycsbFields(2, 9, 3)})
	wants["user008"] = want{2, ycsbFields(2, 9, 3)}
	// A merge-update the parent logged from its map: the merged fields,
	// one of them a null a PATCH stored as nil.
	merged := ycsbFields(3, 5, 4)
	merged["field1"], merged["zz"] = []byte("patched"), nil
	frame(oldWALRecord{Op: walPutTS, Table: "t", Key: "user009", Version: 2, CommitTS: 502, Fields: merged})
	merged["zz"] = []byte{}
	wants["user009"] = want{2, merged}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len("t"); got != len(wants) {
		t.Fatalf("replayed %d records, want %d", got, len(wants))
	}
	for key, w := range wants {
		rec, err := s.Get("t", key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if rec.Version != w.ver {
			t.Errorf("%s = v%d, want v%d", key, rec.Version, w.ver)
		}
		checkImage(t, "replayed "+key, rec, w.fields)
	}
	if old, err := s.GetAsOf("t", "user008", 200); err != nil || old.Version != 1 {
		t.Errorf("as-of read through the replayed chain = %+v, %v", old, err)
	}
}

// TestPreMVCCWALRefused: a log holding a pre-MVCC frame (op code 1, no
// commit ts) behind a TS frame is refused as it stands, not replayed
// and not truncated.
func TestPreMVCCWALRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, path, oldAppendWALRecord(nil, oldWALRecord{Op: walPutTS, Table: "t", Key: "a", Version: 1, CommitTS: 100, Fields: fields("1")}, []string{"field0"}))
	appendRawFrame(t, path, oldAppendWALRecord(nil, oldWALRecord{Op: 1, Table: "t", Key: "legacy", Version: 4, Fields: fields("2")}, []string{"field0"}))
	openRefused(t, path)
}

// TestDecodeFieldsRejectsBadSections: every malformed section is
// ErrBadFields, and nothing is sized from a count the bytes cannot back.
func TestDecodeFieldsRejectsBadSections(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	good := canonicalOf(map[string][]byte{"a": []byte("1"), "b": []byte("22")})
	cases := map[string][]byte{
		"empty":                {},
		"count only, lying":    {5},
		"huge count":           {0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a', 0},
		"cut inside a name":    good[:2],
		"cut inside a value":   good[:len(good)-1],
		"trailing byte":        append(append([]byte(nil), good...), 0),
		"name length past end": {1, 9, 'a', 0},
	}
	for name, sec := range cases {
		if _, _, err := db.DecodeFields(sec, nil); !errors.Is(err, db.ErrBadFields) {
			t.Errorf("%s: err = %v, want ErrBadFields", name, err)
		}
		if _, err := db.CheckFields(sec); !errors.Is(err, db.ErrBadFields) {
			t.Errorf("%s: CheckFields err = %v, want ErrBadFields", name, err)
		}
		if err := s.Ingest("t", []BulkKV{{Key: name, Section: sec}}); !errors.Is(err, db.ErrBadFields) {
			t.Errorf("%s: Ingest err = %v, want ErrBadFields", name, err)
		}
	}
	// Unsorted and duplicate names decode (last wins); they are just not
	// canonical, so nobody takes the section for an image.
	sec := []byte{3, 1, 'b', 1, '1', 1, 'a', 1, '2', 1, 'b', 1, '3'}
	fields, canon, err := db.DecodeFields(sec, nil)
	if err != nil || canon || len(fields) != 2 || string(fields["b"]) != "3" || string(fields["a"]) != "2" {
		t.Errorf("unsorted+duplicate section = %q, canonical %v, %v", fields, canon, err)
	}
	if canon, err := db.CheckFields(sec); err != nil || canon {
		t.Errorf("db.CheckFields(unsorted+duplicate) = canonical %v, %v", canon, err)
	}
	if img, err := ownImage(sec); err != nil || !bytes.Equal(img, canonicalOf(fields)) {
		t.Errorf("ownImage(unsorted+duplicate) = %q, %v; want the canonical encoding of what it decodes to", img, err)
	}
	if fields, canon, err := db.DecodeFields([]byte{0}, nil); err != nil || !canon || fields == nil || len(fields) != 0 {
		t.Errorf("zero fields = %v, canonical %v, %v; want an empty non-nil map", fields, canon, err)
	}
}

func mustGet(t *testing.T, s *Store, table, key string) *VersionedRecord {
	t.Helper()
	rec, err := s.Get(table, key)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}
