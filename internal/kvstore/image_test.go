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
	"sort"
	"testing"
	"time"
	"unsafe"
)

// ycsbFields is the benchmark's record shape: n fields of size bytes.
func ycsbFields(n, size int, seed byte) map[string][]byte {
	fields := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		fields[fmt.Sprintf("field%d", i)] = bytes.Repeat([]byte{'a' + seed + byte(i)}, size)
	}
	return fields
}

// canonical is the reference encoder: names sorted, then the layout.
func canonical(fields map[string][]byte) []byte {
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

// checkImage asserts the image ≡ map invariant on one stored record:
// the image is the canonical encoding of Fields, decoding it gives
// Fields back, and every value lives inside the image.
func checkImage(t *testing.T, what string, rec *VersionedRecord) {
	t.Helper()
	img := rec.Image()
	if img == nil {
		t.Fatalf("%s: no image", what)
	}
	if want := canonical(rec.Fields); !bytes.Equal(img, want) {
		t.Fatalf("%s: image is not the canonical encoding of Fields\n got %q\nwant %q", what, img, want)
	}
	fields, canon, err := DecodeFields(img, nil)
	if err != nil || !canon || !reflect.DeepEqual(fields, rec.Fields) {
		t.Fatalf("%s: decode(image) = %q (canonical %v, %v), Fields = %q", what, fields, canon, err, rec.Fields)
	}
	for name, v := range rec.Fields {
		if len(v) > 0 && !bytes.Contains(img, v) {
			t.Fatalf("%s: %s is not in the image", what, name)
		}
		if len(v) != cap(v) {
			t.Fatalf("%s: %s has spare capacity %d: an append would write into its neighbour", what, name, cap(v)-len(v))
		}
	}
}

// TestImageEqualsMapOnEveryWritePath drives each way a full record gets
// stored and checks image ≡ map on what was stored — then reopens the
// store and checks replay rebuilt byte-identical images, including for
// the merge-updated record that had none while it was live.
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
	if err := s.Ingest("ing", []BulkKV{{Key: "a", Fields: ycsbFields(10, 100, 5)}, {Key: "b", Fields: ycsbFields(20, 10, 6)}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("t", []BulkKV{
		{Key: "ingest", Fields: ycsbFields(10, 100, 7), Version: 9, CommitTS: 5},
		{Key: "gone", Deleted: true, Version: 3, CommitTS: 6},
	}); err != nil {
		t.Fatal(err)
	}
	must(s.Put("t", "updated", ycsbFields(10, 100, 8)))
	must(s.Update("t", "updated", map[string][]byte{"field3": []byte("patched"), "zzz": []byte("new")}))

	type stored struct{ table, key string }
	whole := []stored{{"t", "put"}, {"t", "insert"}, {"t", "cond"}, {"t", "empty"}, {"t", "batch1"}, {"t", "batch2"},
		{"ing", "a"}, {"ing", "b"}, {"t", "ingest"}}
	images := map[stored][]byte{}
	for _, k := range whole {
		rec, err := s.Get(k.table, k.key)
		if err != nil {
			t.Fatal(err)
		}
		checkImage(t, "live "+k.key, rec)
		images[k] = rec.Image()
	}
	// Update-then-read: the merged version shares the untouched values
	// with the version before it and has no image of its own.
	upd, err := s.Get("t", "updated")
	if err != nil {
		t.Fatal(err)
	}
	if upd.Image() != nil {
		t.Errorf("merge-updated record carries an image; it should share values, not copy them")
	}
	if prev := upd.Prev(); prev == nil || &upd.Fields["field0"][0] != &prev.Fields["field0"][0] {
		t.Errorf("merge-update copied an untouched value")
	}
	if string(upd.Fields["field3"]) != "patched" || string(upd.Fields["zzz"]) != "new" || len(upd.Fields) != 11 {
		t.Errorf("merge-updated fields = %q", upd.Fields)
	}
	wantUpdated := canonical(upd.Fields)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ { // plain replay, then replay of a compacted log
		s, err = Open(Options{Path: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range whole {
			rec, err := s.Get(k.table, k.key)
			if err != nil {
				t.Fatal(err)
			}
			checkImage(t, "replayed "+k.key, rec)
			if !bytes.Equal(rec.Image(), images[k]) {
				t.Errorf("round %d: %s/%s re-encoded differently after reopen", round, k.table, k.key)
			}
		}
		rec, err := s.Get("t", "updated")
		if err != nil {
			t.Fatal(err)
		}
		checkImage(t, "replayed merge-update", rec)
		if !bytes.Equal(rec.Image(), wantUpdated) {
			t.Errorf("round %d: replayed merge-update image differs from the canonical encoding of its live fields", round)
		}
		if _, err := s.Get("t", "gone"); err == nil {
			t.Errorf("round %d: ingested tombstone came back live", round)
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
// the map it passed in, the slices in it, a Clone of what it read —
// reaches a stored record.
func TestStoredRecordDoesNotAliasCallers(t *testing.T) {
	s := OpenMemoryShards(2)
	defer s.Close()
	in := ycsbFields(10, 100, 0)
	want := canonical(in)
	if _, err := s.Put("t", "k", in); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("ing", []BulkKV{{Key: "k", Fields: in}}); err != nil {
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
	clone := rec.Clone()

	for name, v := range in { // the caller scribbles over everything it owns
		for i := range v {
			v[i] = '!'
		}
		in[name] = append(v, "tail"...)
	}
	in["extra"] = []byte("x")
	delete(in, "field0")
	patch["field3"][0] = '!'
	for _, v := range clone.Fields {
		for i := range v {
			v[i] = '?'
		}
	}
	clone.Fields["extra"] = nil

	for _, table := range []string{"t", "ing"} {
		rec, err := s.Get(table, "k")
		if err != nil {
			t.Fatal(err)
		}
		checkImage(t, table, rec)
		if !bytes.Equal(rec.Image(), want) {
			t.Errorf("%s/k changed under the caller's edits", table)
		}
	}
	if rec, _ := s.Get("t", "merged"); string(rec.Fields["field3"]) != "patched" {
		t.Errorf("merge-updated value changed under the caller's edit: %q", rec.Fields["field3"])
	}
}

// TestPutBuildsOneSlab pins what storing a record allocates: the
// record, its Go map (four allocations at ten entries) and one slab —
// where each value used to be its own allocation.
func TestPutBuildsOneSlab(t *testing.T) {
	p := newPartition(nil, newStore(1, 0))
	fields := ycsbFields(10, 100, 0)
	p.buildFields(fields) // warm the name memo
	if per := testing.AllocsPerRun(200, func() { p.buildFields(fields) }); per > 5 {
		t.Errorf("building a 10-field record = %.0f allocs, want ≤ 5 (map 4 + slab 1)", per)
	}
	s := OpenMemoryShards(8)
	defer s.Close()
	for i := 0; i < 2000; i++ {
		s.Put("t", fmt.Sprintf("user%06d", i), fields)
	}
	// The rest of a Put is the copy-on-write path through the tree and
	// the published snapshot, the same as before.
	if per := testing.AllocsPerRun(500, func() { s.Put("t", "user001234", fields) }); per > 15 {
		t.Errorf("10-field Put = %.0f allocs, want ≤ 15 (24 with a copy per value)", per)
	}
}

// TestBuildFieldsSharesNames: records of one shape built in one
// partition share one set of name strings.
func TestBuildFieldsSharesNames(t *testing.T) {
	p := newPartition(nil, newStore(1, 0))
	_, a := p.buildFields(ycsbFields(10, 4, 0))
	// The second caller's names are fresh strings with equal contents.
	fresh := map[string][]byte{}
	for name, v := range ycsbFields(10, 4, 1) {
		fresh[string(append([]byte(nil), name...))] = v
	}
	_, b := p.buildFields(fresh)
	namesOf := func(m map[string][]byte) []string {
		out := make([]string, 0, len(m))
		for name := range m {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	na, nb := namesOf(a), namesOf(b)
	for i := range na {
		if unsafe.StringData(na[i]) != unsafe.StringData(nb[i]) {
			t.Errorf("name %q stored twice: the second record kept its caller's string", na[i])
		}
	}
}

// oldAppendWALRecord is the parent's WAL encoder, kept to write a
// segment the way a store before this layout did: fields in whatever
// order the map yields them.
func oldAppendWALRecord(buf []byte, rec walRecord, order []string) []byte {
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
	frame := func(rec walRecord) {
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
		frame(walRecord{Op: walPutTS, Table: "t", Key: key, Version: 1, CommitTS: int64(100 + i), Fields: fields})
		wants[key] = want{1, fields}
	}
	frame(walRecord{Op: walDeleteTS, Table: "t", Key: "user007", Version: 2, CommitTS: 500})
	delete(wants, "user007")
	frame(walRecord{Op: walPutTS, Table: "t", Key: "user008", Version: 2, CommitTS: 501, Fields: ycsbFields(2, 9, 3)})
	wants["user008"] = want{2, ycsbFields(2, 9, 3)}
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
		if rec.Version != w.ver || !reflect.DeepEqual(rec.Fields, w.fields) {
			t.Errorf("%s = v%d %q, want v%d %q", key, rec.Version, rec.Fields, w.ver, w.fields)
		}
		checkImage(t, "replayed "+key, rec)
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
	appendRawFrame(t, path, oldAppendWALRecord(nil, walRecord{Op: walPutTS, Table: "t", Key: "a", Version: 1, CommitTS: 100, Fields: fields("1")}, []string{"field0"}))
	appendRawFrame(t, path, oldAppendWALRecord(nil, walRecord{Op: 1, Table: "t", Key: "legacy", Version: 4, Fields: fields("2")}, []string{"field0"}))
	openRefused(t, path)
}

// TestDecodeFieldsRejectsBadSections: every malformed section is
// ErrBadFields, and nothing is sized from a count the bytes cannot back.
func TestDecodeFieldsRejectsBadSections(t *testing.T) {
	good := canonical(map[string][]byte{"a": []byte("1"), "b": []byte("22")})
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
		if _, _, err := DecodeFields(sec, nil); !errors.Is(err, ErrBadFields) {
			t.Errorf("%s: err = %v, want ErrBadFields", name, err)
		}
	}
	// Unsorted and duplicate names decode (last wins); they are just not
	// canonical, so nobody takes the section for an image.
	sec := []byte{3, 1, 'b', 1, '1', 1, 'a', 1, '2', 1, 'b', 1, '3'}
	fields, canon, err := DecodeFields(sec, nil)
	if err != nil || canon || len(fields) != 2 || string(fields["b"]) != "3" || string(fields["a"]) != "2" {
		t.Errorf("unsorted+duplicate section = %q, canonical %v, %v", fields, canon, err)
	}
	if fields, canon, err := DecodeFields([]byte{0}, nil); err != nil || !canon || fields == nil || len(fields) != 0 {
		t.Errorf("zero fields = %v, canonical %v, %v; want an empty non-nil map", fields, canon, err)
	}
}
