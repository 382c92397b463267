package kvwire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"unsafe"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// TestChunkEncodeIsACopy pins the server side: a page of engine
// records is their images copied behind per-record headers — no
// allocation, and byte for byte the stored sections.
func TestChunkEncodeIsACopy(t *testing.T) {
	kvs := storedRecords(t, 100, 10, 100)
	buf, n := encodePage(nil, 1, kvs, 0, "")
	if n != 100 {
		t.Fatalf("page took %d of 100 records", n)
	}
	if per := testing.AllocsPerRun(100, func() { buf, _ = encodePage(buf[:0], 1, kvs, 0, "") }); per != 0 {
		t.Errorf("page encode = %.1f allocs, want 0", per)
	}
	for _, kv := range kvs {
		if !bytes.Contains(buf, kv.Record.Image()) {
			t.Fatalf("%s: its image is not in the frame as it stands", kv.Key)
		}
	}
	res := []Result{{Status: 200, Version: 1, HasVersion: true, rec: kvs[0].Record}}
	out := AppendResponse(nil, 1, res)
	if per := testing.AllocsPerRun(100, func() { out = AppendResponse(out[:0], 1, res) }); per != 0 {
		t.Errorf("response encode = %.1f allocs, want 0", per)
	}
	if !bytes.Contains(out, kvs[0].Record.Image()) {
		t.Error("response does not carry the image as it stands")
	}
}

// TestCoreGetAllocs pins a one-op get through the core — every REST
// GET's path — at no allocation when the caller owns the op and result
// slices: it is the engine's point get. It built a one-element request
// slice and a result slice when every get run went through BatchGet.
func TestCoreGetAllocs(t *testing.T) {
	store := kvstore.OpenMemory()
	defer store.Close()
	if _, err := store.Put("usertable", "user1", map[string][]byte{"field0": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	core := NewCore(store, nil, 0)
	ctx := context.Background()
	ops := []Op{{Kind: KindGet, Table: "usertable", Key: "user1"}}
	out := make([]Result, 1)
	if per := testing.AllocsPerRun(200, func() { core.ExecBatchInto(ctx, ops, out) }); per != 0 {
		t.Errorf("one-op get = %.1f allocs, want 0", per)
	}
	if out[0].Status != 200 || out[0].Version != 1 {
		t.Errorf("one-op get = %+v, want 200 at version 1", out[0])
	}
}

// TestChunkDecodeAllocations pins the client side on the benchmark's
// page (100 records × 10 fields × 100 B). Decoding the page checks each
// record's field section and keeps it, so a record costs its key alone,
// and reading it through its view (View) walks the section in place:
// no map, and its values and names cost nothing. It was a Go map per
// record read (four allocations at ten entries) while readers asked for
// one, 5 a record with every map built up front, 25 before that (a
// string per name, a slice per value). A get's response still decodes
// to a map, copied out of the payload.
func TestChunkDecodeAllocations(t *testing.T) {
	buf, _ := encodePage(nil, 1, storedRecords(t, 100, 10, 100), 0, "")
	payload := buf[frameHeaderLen:]
	if per := testing.AllocsPerRun(50, func() { decodePage(payload) }) / 100; per > 1.05 {
		t.Errorf("page decode = %.2f allocs per record, want ≤ 1 (the key)", per)
	}
	p, err := decodePage(payload)
	if err != nil {
		t.Fatal(err)
	}
	recs := p.recs
	walk := func() { recs[42].View().Range(func(string, []byte) bool { return true }) }
	if per := testing.AllocsPerRun(50, walk); per != 0 {
		t.Errorf("walking a record's view = %.0f allocs, want 0", per)
	}

	// Sections and the values read through a view point into the payload.
	lastByte := len(payload) - 3 // the last record's last value, before the trailer (map version 0, next "")
	last, _ := recs[99].View().Get("field9")
	before := last[len(last)-1]
	payload[lastByte] ^= 0xff
	if last[len(last)-1] == before || recs[99].Section()[len(recs[99].Section())-1] == before {
		t.Error("page decode copied the payload")
	}
	payload[lastByte] ^= 0xff

	// So do the names: a record's name strings are its section's bytes.
	nameOf := func(r *StreamRecord, want string) (got string) {
		r.View().Range(func(name string, _ []byte) bool {
			if name == want {
				got = name
			}
			return got == ""
		})
		return got
	}
	inPayload := func(s string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return at >= uintptr(unsafe.Pointer(&payload[0])) && at < uintptr(unsafe.Pointer(&payload[len(payload)-1]))
	}
	if a := nameOf(&recs[57], "field3"); a == "" || !inPayload(a) {
		t.Error("a record's view does not read its names out of the page")
	}

	// A response is the other way round: the read loop reuses its frame
	// buffer, so a result's values are copied out of the payload, into
	// one slab, and a record costs its map and that slab.
	resp := responsePayload(t, 10, 100)
	var dec fieldDecoder // a connection's, names memoized after the first
	out, err := dec.response(resp, nil)
	if err != nil || len(out) != 1 || len(out[0].Fields) != 10 {
		t.Fatalf("response decode = %+v, %v", out, err)
	}
	if per := testing.AllocsPerRun(50, func() { out, _ = dec.response(resp, out[:0]) }); per > 5 {
		t.Errorf("response decode = %.0f allocs per record, want ≤ 5 (map 4 + slab 1)", per)
	}
	out, _ = dec.response(resp, out[:0])
	val := out[0].Fields["field9"]
	want := bytes.Clone(val)
	resp[len(resp)-1] ^= 0xff // the last value's last byte: the last record has no trailer
	if !bytes.Equal(val, want) {
		t.Error("response decode aliased the payload")
	}
	resp[len(resp)-1] ^= 0xff
}

// section wraps raw field-section bytes in the one-result response a
// decoder would meet them in.
func section(sec []byte) []byte {
	p := []byte{1, 0xc8, 1, resFlagFields} // one result, status 200, fields follow
	p = binary.AppendUvarint(p, uint64(len(sec)))
	return append(p, sec...)
}

// TestHostileFieldSections: every way a length-prefixed section can lie
// is a typed error from every decoder that reads one — never a panic,
// never an allocation sized from the lie.
func TestHostileFieldSections(t *testing.T) {
	good := kvstore.AppendFields(nil, map[string][]byte{"f": []byte("value")})
	manyFields := binary.AppendUvarint(nil, maxFieldsPerOp+1)
	manyFields = append(manyFields, make([]byte, 2*(maxFieldsPerOp+1))...) // enough bytes to back the claim
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"length past the payload", append([]byte{1, 0xc8, 1, resFlagFields}, append(binary.AppendUvarint(nil, uint64(len(good)+1)), good...)...), errTruncated},
		{"length far past the payload", []byte{1, 0xc8, 1, resFlagFields, 0xff, 0xff, 0xff, 0x7f, 1}, errTruncated},
		{"length shorter than its contents", append([]byte{1, 0xc8, 1, resFlagFields}, append(binary.AppendUvarint(nil, uint64(len(good)-2)), good...)...), db.ErrBadFields},
		{"empty section", section(nil), db.ErrBadFields},
		{"count lying high", section([]byte{3, 1, 'f', 1, 'v'}), db.ErrBadFields},
		{"count lying low", section([]byte{1, 1, 'f', 1, 'v', 1, 'g', 1, 'w'}), db.ErrBadFields},
		{"count beyond the section", section([]byte{0xff, 0xff, 0x03}), db.ErrBadFields},
		{"over maxFieldsPerOp", section(manyFields), errTooManyFields},
	}
	for _, c := range cases {
		if _, err := DecodeResponse(c.payload, nil); !errors.Is(err, c.want) {
			t.Errorf("response, %s: err = %v, want %v", c.name, err, c.want)
		}
		// The same section inside a page record and inside a put.
		sec := c.payload[4:]
		page := append([]byte{1, recFlagFields, 1, 'k', 1, 2}, sec...)
		if _, _, _, err := DecodePage(page); !errors.Is(err, c.want) {
			t.Errorf("page, %s: err = %v, want %v", c.name, err, c.want)
		}
		req := append([]byte{0, 1, byte(KindPut), opFlagFields, 1, 't', 1, 'k'}, sec...)
		if _, _, err := DecodeRequest(req, nil); !errors.Is(err, c.want) {
			t.Errorf("request, %s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Accepted, if odd: duplicate and unsorted names (last one wins),
	// zero fields, a padded length, exactly maxFieldsPerOp fields.
	res, err := DecodeResponse(section([]byte{3, 1, 'b', 1, '1', 1, 'a', 1, '2', 1, 'b', 1, '3'}), nil)
	if err != nil || len(res[0].Fields) != 2 || string(res[0].Fields["b"]) != "3" {
		t.Errorf("duplicate + unsorted names = %+v, %v", res, err)
	}
	if res, err = DecodeResponse(section([]byte{0}), nil); err != nil || res[0].Fields == nil || len(res[0].Fields) != 0 {
		t.Errorf("zero fields = %+v, %v; want an empty non-nil map", res, err)
	}
	padded := append([]byte{1, 0xc8, 1, resFlagFields, byte(len(good)) | 0x80, 0x80, 0x80, 0}, good...)
	if res, err = DecodeResponse(padded, nil); err != nil || string(res[0].Fields["f"]) != "value" {
		t.Errorf("padded section length = %+v, %v", res, err)
	}
	atLimit := binary.AppendUvarint(nil, maxFieldsPerOp)
	atLimit = append(atLimit, make([]byte, 2*maxFieldsPerOp)...) // 65536 × the empty name, empty value
	if res, err = DecodeResponse(section(atLimit), nil); err != nil || len(res[0].Fields) != 1 {
		t.Errorf("maxFieldsPerOp fields: %d decoded, %v", len(res[0].Fields), err)
	}
}
