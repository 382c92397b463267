package kvwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

func sampleOps() []Op {
	return []Op{
		{Kind: KindGet, Table: "usertable", Key: "user42"},
		{Kind: KindPut, Table: "t", Key: "k2", Fields: map[string][]byte{"field0": []byte("v0"), "field1": {}}, Expect: kvstore.AnyVersion},
		{Kind: KindPut, Table: "t", Key: "new", Fields: map[string][]byte{"a": []byte("b")}, Expect: kvstore.MustNotExist},
		{Kind: KindPatch, Table: "t", Key: "k3", Fields: map[string][]byte{"f": []byte("x")}, Expect: kvstore.AnyVersion},
		{Kind: KindDelete, Table: "t", Key: "k4", Expect: 7},
	}
}

func sampleResults() []Result {
	return []Result{
		{Status: 200, Version: 3, HasVersion: true, Fields: map[string][]byte{"f": []byte("v")}},
		{Status: 200, Version: 9, HasVersion: true, Fields: map[string][]byte{"g": []byte("w")}},
		{Status: 404, Err: "not found"},
		{Status: 204, Version: 8, HasVersion: true},
		{Status: 410, Err: "moved", Owner: "http://127.0.0.1:9999", MapVersion: 4},
		{Status: 410, Err: "draining", MapVersion: 5},
		{Status: 429, Err: "too many in-flight batches"},
	}
}

func TestFrameRequestRoundTrip(t *testing.T) {
	ops := sampleOps()
	buf := AppendRequest(nil, 77, 1500, ops)
	typ, id, payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != frameRequest || id != 77 {
		t.Fatalf("typ=%d id=%d", typ, id)
	}
	deadline, got, err := DecodeRequest(payload, nil)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if deadline != 1500 {
		t.Fatalf("deadline=%d", deadline)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("ops round trip:\n got %+v\nwant %+v", got, ops)
	}
}

func TestFrameResponseRoundTrip(t *testing.T) {
	res := sampleResults()
	buf := AppendResponse(nil, 12345678901234, res)
	typ, id, payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != frameResponse || id != 12345678901234 {
		t.Fatalf("typ=%d id=%d", typ, id)
	}
	got, err := DecodeResponse(payload, nil)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("results round trip:\n got %+v\nwant %+v", got, res)
	}
}

func TestFrameErrorRoundTrip(t *testing.T) {
	buf := AppendError(nil, 5, 429, 2, "too many in-flight batches")
	typ, id, payload, err := ReadFrame(bytes.NewReader(buf), nil)
	if err != nil || typ != frameError || id != 5 {
		t.Fatalf("typ=%d id=%d err=%v", typ, id, err)
	}
	status, retry, msg, err := DecodeError(payload)
	if err != nil || status != 429 || retry != 2 || msg != "too many in-flight batches" {
		t.Fatalf("status=%d retry=%d msg=%q err=%v", status, retry, msg, err)
	}
}

func TestReadFrameRefusesOversizedPayload(t *testing.T) {
	hdr := make([]byte, frameHeaderLen)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr), nil); err != ErrFrameTooLarge {
		t.Fatalf("err=%v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameCleanEOF(t *testing.T) {
	if _, _, _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("err=%v, want io.EOF", err)
	}
}

func TestDecodeRequestRejectsLyingCounts(t *testing.T) {
	// deadline 0, then a count that claims far more ops than the
	// payload could hold — must error before allocating them.
	payload := []byte{0, 0xff, 0xff, 0x3f} // count = 1048575
	if _, _, err := DecodeRequest(payload, nil); err == nil {
		t.Fatal("accepted lying op count")
	}
}

func TestDecodeRequestRejectsTrailingBytes(t *testing.T) {
	buf := AppendRequest(nil, 1, 0, []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	payload := append(append([]byte(nil), buf[frameHeaderLen:]...), 0x00)
	if _, _, err := DecodeRequest(payload, nil); err == nil {
		t.Fatal("accepted trailing bytes")
	}
}

// A page record carrying any flag bit but the fields bit — the bit
// that once marked a deleted record included — is refused, not read
// as a live record.
func TestDecodeChunkRejectsUnknownRecordFlags(t *testing.T) {
	frame := appendPage(nil, 1, []StreamRecord{{Key: "k", Version: 1, CommitTS: 1, Fields: map[string][]byte{"f": []byte("v")}}}, 0, "")
	payload := frame[frameHeaderLen:] // count 1 in two bytes, then the record's flags
	if _, _, _, err := DecodePage(payload); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []byte{1 << 0, 1 << 2, 1 << 7} {
		bad := bytes.Clone(payload)
		bad[2] |= bit
		if _, _, _, err := DecodePage(bad); err == nil {
			t.Errorf("record flags %#x accepted", bad[2])
		}
	}
}

// An op or a result carrying a flag bit its decoder does not know is
// refused, not skipped: a skipped bit would leave its section to be
// read as the next one. Bit 2 of an op and bit 3 of a result carried a
// snapshot timestamp once.
func TestDecodeRejectsUnknownOpAndResultFlags(t *testing.T) {
	req := AppendRequest(nil, 1, 0, []Op{{Kind: KindGet, Table: "t", Key: "k", Expect: kvstore.AnyVersion}})[frameHeaderLen:]
	res := AppendResponse(nil, 1, []Result{{Status: 404, Err: "not found"}})[frameHeaderLen:]
	for _, tc := range []struct {
		payload []byte
		at      int // the flags byte: after deadline, count and kind; after count and a two-byte status
		bits    []byte
		mode    byte
	}{
		{req, 3, []byte{1 << 2, 1 << 4, 1 << 7}, 0},
		{res, 3, []byte{1 << 3, 1 << 5, 1 << 7}, 1},
	} {
		if err := decodeAs(tc.payload, tc.mode); err != nil {
			t.Fatal(err)
		}
		for _, bit := range tc.bits {
			bad := bytes.Clone(tc.payload)
			bad[tc.at] |= bit
			if err := decodeAs(bad, tc.mode); err == nil {
				t.Errorf("mode %d: flags %#x accepted", tc.mode, bad[tc.at])
			}
		}
	}
}

// FuzzFrameCodec checks every frame decoder never panics on hostile
// input and that whatever it accepts re-encodes to a frame that
// decodes equal (structure round trip — overlong uvarints mean
// byte-exact stability is not guaranteed, struct-exact is). The
// allocation guard is implicit: lying counts error before reserving
// memory, so hostile frames cannot make the decoder allocate beyond
// their own size. mode selects the decoder under test: 0 request,
// 1 response, 2 scan-request, 3 page.
//
// A page decoder checks its records' field sections and leaves them
// encoded, and a record's view (View) walks its section in place, so
// whatever it accepts must read through the view as db.DecodeFields
// reads it: the same pairs, in the section's order, and as many. Every
// payload is also tried as a field section, bare and as a page
// record's: the page decoder, db.CheckFields and db.DecodeFields accept
// and refuse the same sections, so no view walks bytes that were not
// checked.
func FuzzFrameCodec(f *testing.F) {
	reqSeed := AppendRequest(nil, 1, 250, sampleOps())
	resSeed := AppendResponse(nil, 2, sampleResults())
	scanSeed := AppendScanRequest(nil, 3, &ScanRequest{Table: "t", Start: "user1", Count: 100, Slot: 3})
	pageSeed, _ := encodePage(nil, 4, sampleScanRecords(f), 7, "")
	moreSeed, _ := encodePage(nil, 5, sampleScanRecords(f), 7, "user3\x00")
	drainSeed := AppendScanRequest(nil, 6, &ScanRequest{Table: "t", Count: -1, Slot: 0})
	f.Add(reqSeed[frameHeaderLen:], byte(0))
	f.Add(resSeed[frameHeaderLen:], byte(1))
	f.Add(scanSeed[frameHeaderLen:], byte(2))
	f.Add(pageSeed[frameHeaderLen:], byte(3))
	f.Add(moreSeed[frameHeaderLen:], byte(3)) // a page with a next-page start
	f.Add(drainSeed[frameHeaderLen:], byte(2))
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 1, 1}, byte(0))
	// Hostile: a page truncated mid-record, one claiming far more
	// records than its bytes could carry, one whose count says two
	// records where three follow (the third is read as the trailer),
	// and an empty page missing its trailer.
	f.Add(pageSeed[frameHeaderLen:len(pageSeed)-5], byte(3))
	f.Add([]byte{0xff, 0xff, 0x3f, 0x0e}, byte(3))
	lying := bytes.Clone(pageSeed[frameHeaderLen:])
	lying[0] = 0x82
	f.Add(lying, byte(3))
	f.Add([]byte{0}, byte(3))
	// Hostile: a scan request with trailing bytes, and one cut short.
	f.Add(append(bytes.Clone(scanSeed[frameHeaderLen:]), 4), byte(2))
	f.Add(scanSeed[frameHeaderLen:len(scanSeed)-1], byte(2))
	// Hostile: length-prefixed field sections that lie — a length past
	// the payload, one cutting its last field short, a count the section
	// cannot back, trailing bytes inside the section — and the odd but
	// legal ones: duplicate and unsorted names, zero fields.
	for _, sec := range [][]byte{
		{9, 1, 1, 'f', 1, 'v'},
		{0xff, 0xff, 0xff, 0x7f, 1},
		{4, 1, 1, 'f', 1, 'v'},
		{5, 3, 1, 'f', 1, 'v'},
		{7, 1, 1, 'f', 1, 'v', 0, 0},
		{0},
		{13, 3, 1, 'b', 1, '1', 1, 'a', 1, '2', 1, 'b', 1, '3'},
		{1, 0},
	} {
		f.Add(append([]byte{1, 0xc8, 1, resFlagFields}, sec...), byte(1))
		f.Add(append(append([]byte{1, recFlagFields, 1, 'k', 1, 2}, sec...), 0, 0), byte(3))
		f.Add(append([]byte{0, 1, byte(KindPut), opFlagFields, 1, 't', 1, 'k'}, sec...), byte(0))
	}
	// Version 3's as-of sections, which no decoder may read as anything
	// else now: a get carrying the retired op bit and its timestamp, a
	// result carrying the retired result bit and its echo, and a scan
	// request with the as-of varint between count and slot.
	for _, old := range []struct {
		payload []byte
		mode    byte
	}{
		{binary.AppendVarint([]byte{0, 1, byte(KindGet), opFlagMustNotExist | 1<<2, 1, 't', 1, 'k'}, 123456789), 0},
		{binary.AppendVarint([]byte{1, 0xc8, 1, resFlagVersion | 1<<3, 9}, 42), 1},
		{binary.AppendVarint(binary.AppendVarint(binary.AppendVarint([]byte("\x01t\x05user1"), 100), 42), 3), 2},
	} {
		if err := decodeAs(old.payload, old.mode); err == nil {
			f.Fatalf("mode %d: a version-3 as-of payload %x decoded", old.mode, old.payload)
		}
		f.Add(old.payload, old.mode)
	}
	f.Fuzz(func(t *testing.T, payload []byte, mode byte) {
		checkSectionAgreement(t, payload)
		switch mode % 4 {
		case 0:
			deadline, ops, err := DecodeRequest(payload, nil)
			if err != nil {
				return
			}
			re := AppendRequest(nil, 9, deadline, ops)
			deadline2, ops2, err := DecodeRequest(re[frameHeaderLen:], nil)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if deadline2 != deadline || !reflect.DeepEqual(normOps(ops2), normOps(ops)) {
				t.Fatalf("request not stable:\n got %+v\nwant %+v", ops2, ops)
			}
		case 1:
			res, err := DecodeResponse(payload, nil)
			if err != nil {
				return
			}
			re := AppendResponse(nil, 9, res)
			res2, err := DecodeResponse(re[frameHeaderLen:], nil)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(res2, res) {
				t.Fatalf("response not stable:\n got %+v\nwant %+v", res2, res)
			}
		case 2:
			req, err := DecodeScanRequest(payload)
			if err != nil {
				return
			}
			re := AppendScanRequest(nil, 9, &req)
			req2, err := DecodeScanRequest(re[frameHeaderLen:])
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(req2, req) {
				t.Fatalf("scan request not stable:\n got %+v\nwant %+v", req2, req)
			}
		case 3:
			recs, mapVer, next, err := DecodePage(payload)
			if err != nil {
				return
			}
			re := appendPage(nil, 9, recs, mapVer, next)
			recs2, mapVer2, next2, err := DecodePage(re[frameHeaderLen:])
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if mapVer2 != mapVer || next2 != next || !reflect.DeepEqual(normRecs(recs2), normRecs(recs)) {
				t.Fatalf("page not stable:\n got %+v\nwant %+v", recs2, recs)
			}
			for i := range recs {
				checkRecordDecodes(t, &recs[i])
			}
		}
	})
}

// decodeAs runs the decoder FuzzFrameCodec's mode selects.
func decodeAs(payload []byte, mode byte) (err error) {
	switch mode % 4 {
	case 0:
		_, _, err = DecodeRequest(payload, nil)
	case 1:
		_, err = DecodeResponse(payload, nil)
	case 2:
		_, err = DecodeScanRequest(payload)
	default:
		_, _, _, err = DecodePage(payload)
	}
	return err
}

// checkSectionAgreement tries sec as a bare field section and as the
// section of a page's one record: db.CheckFields, DecodeFields and the
// page decoder must all accept it or all refuse it (the page also
// refuses a count over maxFieldsPerOp), and the record of an accepted
// page must read through its view as DecodeFields reads the section.
func checkSectionAgreement(t *testing.T, sec []byte) {
	t.Helper()
	sec = append([]byte{}, sec...) // non-nil: the record carries a section
	_, checkErr := db.CheckFields(sec)
	_, _, decodeErr := db.DecodeFields(sec, nil)
	if (checkErr == nil) != (decodeErr == nil) {
		t.Fatalf("section %q: CheckFields %v, DecodeFields %v", sec, checkErr, decodeErr)
	}
	page := finishPage(appendStreamRecord(appendPageHead(nil, 1), "k", 1, 2, sec), 0, 1, 0, "")
	recs, _, _, pageErr := DecodePage(page[frameHeaderLen:])
	count, _ := binary.Uvarint(sec)
	if want := decodeErr == nil && count <= maxFieldsPerOp; (pageErr == nil) != want {
		t.Fatalf("section %q: page decode %v, DecodeFields %v", sec, pageErr, decodeErr)
	}
	if pageErr == nil {
		checkRecordDecodes(t, &recs[0])
	}
}

// checkRecordDecodes asserts that a record of an accepted page reads
// through its view (View) as db.DecodeFields reads its section: Len is
// the decoded map's, Get finds every decoded value, and Range walks the
// same pairs — in the section's own order when its names are canonical,
// the order a scan hands them on in, and as the decoded map otherwise.
func checkRecordDecodes(t *testing.T, r *StreamRecord) {
	t.Helper()
	v := r.View()
	sec := r.Section()
	if sec == nil {
		if v.Len() != 0 || len(v.Map()) != 0 {
			t.Fatalf("record %q without a section views %d fields", r.Key, v.Len())
		}
		return
	}
	want, canonical, err := db.DecodeFields(sec, nil)
	if err != nil {
		t.Fatalf("record %q: the page accepted a section DecodeFields refuses: %v", r.Key, err)
	}
	if v.Len() != len(want) {
		t.Fatalf("record %q: view Len = %d, DecodeFields has %d fields", r.Key, v.Len(), len(want))
	}
	for name, val := range want {
		if got, ok := v.Get(name); !ok || !bytes.Equal(got, val) {
			t.Fatalf("record %q: view Get(%q) = %q, %v; DecodeFields has %q", r.Key, name, got, ok, val)
		}
	}
	type pair struct{ name, val string }
	var walked []pair
	v.Range(func(name string, val []byte) bool {
		walked = append(walked, pair{name, string(val)})
		return true
	})
	var inSection []pair
	n, b := db.SectionPairs(sec)
	for i := 0; i < n; i++ {
		var nb, val []byte
		nb, val, b = db.NextPair(b)
		inSection = append(inSection, pair{string(nb), string(val)})
	}
	if !canonical { // viewed as the decoded map: its pairs, in name order
		inSection = inSection[:0]
		for name, val := range want {
			inSection = append(inSection, pair{name, string(val)})
		}
		less := func(a, b pair) int { return strings.Compare(a.name, b.name) }
		slices.SortFunc(inSection, less)
		slices.SortFunc(walked, less)
	}
	if !reflect.DeepEqual(walked, inSection) {
		t.Fatalf("record %q: view walks %q, the section holds %q", r.Key, walked, inSection)
	}
	if got := v.Map(); !reflect.DeepEqual(got, want) {
		t.Fatalf("record %q: view Map = %q, DecodeFields %q", r.Key, got, want)
	}
}

// sampleScanRecords covers the page record shapes as a scan reads
// them out of an engine: records with fields, a merge-updated one
// (no image), and an empty field map.
func sampleScanRecords(tb testing.TB) []kvstore.VersionedKV {
	s := kvstore.OpenMemory()
	tb.Cleanup(func() { s.Close() })
	for _, rec := range []struct {
		key    string
		fields map[string][]byte
	}{
		{"user1", map[string][]byte{"f0": []byte("v0"), "f1": {}}},
		{"user2", map[string][]byte{"f": []byte("v")}},
		{"user3", map[string][]byte{}},
	} {
		if _, err := s.Put("t", rec.key, rec.fields); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.Update("t", "user2", map[string][]byte{"g": []byte("patched")}); err != nil {
		tb.Fatal(err)
	}
	kvs, err := s.Scan("t", "", 10)
	if err != nil || len(kvs) != 3 {
		tb.Fatalf("scan = %d records, %v", len(kvs), err)
	}
	return kvs
}

// appendPage re-encodes decoded records as one page frame with the
// record encoder the server runs (appendStreamRecord), so a page the
// decoder accepts can be round-tripped.
func appendPage(buf []byte, id uint64, recs []StreamRecord, mapVersion int64, next string) []byte {
	off := len(buf)
	buf = appendPageHead(buf, id)
	for _, r := range recs {
		sec := r.Section()
		if sec == nil && r.Fields != nil {
			sec = kvstore.AppendFields(nil, r.Fields)
		}
		buf = appendStreamRecord(buf, r.Key, r.Version, r.CommitTS, sec)
	}
	return finishPage(buf, off, len(recs), mapVersion, next)
}

// encodePage encodes engine records as one page frame the way the
// server's handleScan does — each record's image copied, the page cut
// once its records reach scanPageBytes — and reports how many of kvs it
// took.
func encodePage(buf []byte, id uint64, kvs []kvstore.VersionedKV, mapVersion int64, next string) ([]byte, int) {
	off := len(buf)
	buf = appendPageHead(buf, id)
	n := 0
	for _, kv := range kvs {
		r := kv.Record
		buf = appendStreamRecord(buf, kv.Key, r.Version, r.CommitTS, r.Image())
		if n++; len(buf)-off >= scanPageBytes {
			break
		}
	}
	return finishPage(buf, off, n, mapVersion, next), n
}

// normRecs is normOps for page records: empty-but-non-nil field maps
// compare equal to omitted ones.
func normRecs(recs []StreamRecord) []StreamRecord {
	out := make([]StreamRecord, len(recs))
	copy(out, recs)
	for i := range out {
		if len(out[i].Fields) == 0 {
			out[i].Fields = nil
		}
	}
	return out
}

// normOps maps empty-but-non-nil field maps to nil so DeepEqual treats
// a decoded zero-count map and an omitted one alike (the encoder
// distinguishes them; the semantics do not).
func normOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	copy(out, ops)
	for i := range out {
		if len(out[i].Fields) == 0 {
			out[i].Fields = nil
		}
	}
	return out
}
