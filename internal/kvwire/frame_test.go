package kvwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"

	"ycsbt/internal/kvstore"
)

func sampleOps() []Op {
	return []Op{
		{Kind: KindGet, Table: "usertable", Key: "user42"},
		{Kind: KindGet, Table: "t", Key: "k", AsOf: 123456789},
		{Kind: KindPut, Table: "t", Key: "k2", Fields: map[string][]byte{"field0": []byte("v0"), "field1": {}}, Expect: kvstore.AnyVersion},
		{Kind: KindPut, Table: "t", Key: "new", Fields: map[string][]byte{"a": []byte("b")}, Expect: kvstore.MustNotExist},
		{Kind: KindPatch, Table: "t", Key: "k3", Fields: map[string][]byte{"f": []byte("x")}, Expect: kvstore.AnyVersion},
		{Kind: KindDelete, Table: "t", Key: "k4", Expect: 7},
	}
}

func sampleResults() []Result {
	return []Result{
		{Status: 200, Version: 3, HasVersion: true, Fields: map[string][]byte{"f": []byte("v")}},
		{Status: 200, Version: 9, HasVersion: true, Fields: map[string][]byte{"f": []byte("v")}, AsOf: 42},
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

// FuzzFrameCodec checks every frame decoder never panics on hostile
// input and that whatever it accepts re-encodes to a frame that
// decodes equal (structure round trip — overlong uvarints mean
// byte-exact stability is not guaranteed, struct-exact is). The
// allocation guard is implicit: lying counts error before reserving
// memory, so hostile frames cannot make the decoder allocate beyond
// their own size. mode selects the decoder under test: 0 request,
// 1 response, 2 scan-request, 3 chunk, 4 stream-end, 5 credit.
func FuzzFrameCodec(f *testing.F) {
	reqSeed := AppendRequest(nil, 1, 250, sampleOps())
	resSeed := AppendResponse(nil, 2, sampleResults())
	scanSeed := AppendScanRequest(nil, 3, &ScanRequest{Table: "t", Start: "user1", Count: 100, AsOf: 42, Slot: 3, Tombstones: true, Window: 4})
	chunkSeed, _ := appendScanChunk(nil, 4, 7, sampleScanRecords(f))
	endSeed := AppendStreamEnd(nil, 5, 409, 7, 12, "shard map changed mid-scan")
	creditSeed := AppendCredit(nil, 6, 3)
	f.Add(reqSeed[frameHeaderLen:], byte(0))
	f.Add(resSeed[frameHeaderLen:], byte(1))
	f.Add(scanSeed[frameHeaderLen:], byte(2))
	f.Add(chunkSeed[frameHeaderLen:], byte(3))
	f.Add(endSeed[frameHeaderLen:], byte(4))
	f.Add(creditSeed[frameHeaderLen:], byte(5))
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 1, 1}, byte(0))
	// Hostile: a chunk truncated mid-record and one claiming far more
	// records than its bytes could carry.
	f.Add(chunkSeed[frameHeaderLen:len(chunkSeed)-5], byte(3))
	f.Add([]byte{0x0e, 0xff, 0xff, 0x3f}, byte(3))
	// Hostile: lying credits — a zero grant and one far past the
	// window cap, both of which the decoder must refuse — and a scan
	// request asking for a window of zero.
	f.Add([]byte{0x00}, byte(5))
	f.Add([]byte{0xff, 0xff, 0x7f}, byte(5))
	f.Add(append(bytes.Clone(scanSeed[frameHeaderLen:len(scanSeed)-1]), 0), byte(2))
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
		f.Add(append([]byte{0, 1, recFlagFields, 1, 'k', 1, 2}, sec...), byte(3))
		f.Add(append([]byte{0, 1, byte(KindPut), opFlagFields, 1, 't', 1, 'k'}, sec...), byte(0))
	}
	f.Fuzz(func(t *testing.T, payload []byte, mode byte) {
		switch mode % 6 {
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
			req, _, err := DecodeScanRequest(payload)
			if err != nil {
				return
			}
			re := AppendScanRequest(nil, 9, &req)
			req2, _, err := DecodeScanRequest(re[frameHeaderLen:])
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(req2, req) {
				t.Fatalf("scan request not stable:\n got %+v\nwant %+v", req2, req)
			}
		case 3:
			mapVer, recs, err := DecodeChunk(payload, nil)
			if err != nil {
				return
			}
			re := appendChunk(nil, 9, mapVer, recs)
			mapVer2, recs2, err := DecodeChunk(re[frameHeaderLen:], nil)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if mapVer2 != mapVer || !reflect.DeepEqual(normRecs(recs2), normRecs(recs)) {
				t.Fatalf("chunk not stable:\n got %+v\nwant %+v", recs2, recs)
			}
		case 4:
			status, mapVer, count, msg, err := DecodeStreamEnd(payload)
			if err != nil {
				return
			}
			re := AppendStreamEnd(nil, 9, status, mapVer, count, msg)
			status2, mapVer2, count2, msg2, err := DecodeStreamEnd(re[frameHeaderLen:])
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if status2 != status || mapVer2 != mapVer || count2 != count || msg2 != msg {
				t.Fatalf("stream end not stable: got %d/%d/%d/%q want %d/%d/%d/%q",
					status2, mapVer2, count2, msg2, status, mapVer, count, msg)
			}
		case 5:
			n, err := DecodeCredit(payload)
			if err != nil {
				return
			}
			re := AppendCredit(nil, 9, n)
			n2, err := DecodeCredit(re[frameHeaderLen:])
			if err != nil || n2 != n {
				t.Fatalf("credit not stable: got %d err=%v want %d", n2, err, n)
			}
		}
	})
}

// sampleScanRecords covers the chunk record shapes as a migration
// copy's tombstone scan reads them out of an engine: live records with
// fields, a tombstone, and an empty field map.
func sampleScanRecords(tb testing.TB) []kvstore.VersionedKV {
	s := kvstore.OpenMemory()
	tb.Cleanup(func() { s.Close() })
	for _, rec := range []struct {
		key    string
		fields map[string][]byte
	}{
		{"user1", map[string][]byte{"f0": []byte("v0"), "f1": {}}},
		{"user2", map[string][]byte{"f": []byte("doomed")}},
		{"user3", map[string][]byte{}},
	} {
		if _, err := s.Put("t", rec.key, rec.fields); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Delete("t", "user2"); err != nil {
		tb.Fatal(err)
	}
	kvs, err := s.ScanVersionsAsOf("t", "", 10, s.SnapshotTS())
	if err != nil || len(kvs) != 3 || !kvs[1].Record.Tombstone() {
		tb.Fatalf("tombstone scan = %d records, %v", len(kvs), err)
	}
	return kvs
}

// appendChunk re-encodes decoded records as one chunk frame with the
// record encoder a scan producer runs (appendStreamRecord), so a chunk
// the decoder accepts can be round-tripped.
func appendChunk(buf []byte, id uint64, mapVersion int64, recs []StreamRecord) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameChunk, id)
	buf = binary.AppendVarint(buf, mapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = appendStreamRecord(buf, r.Key, r.Version, r.CommitTS, r.Deleted, nil, r.Fields)
	}
	return finishFrame(buf, off)
}

// normRecs is normOps for chunk records: empty-but-non-nil field maps
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
