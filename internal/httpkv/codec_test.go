package httpkv

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"ycsbt/internal/kvstore"
)

// recordFrom builds a record out of fuzz bytes: the first line is the
// key, and every further line is a field, split at its first '=' into
// name and value (no '=': a nil value). The numbers and the deleted bit
// follow the input's length.
func recordFrom(data []byte) wireRecord {
	lines := strings.Split(string(data), "\n")
	r := wireRecord{
		Key:      lines[0],
		Version:  uint64(len(data)) * 0x9e3779b97f4a7c15,
		CommitTS: int64(len(lines)) - 2,
		Deleted:  len(data)%2 == 1,
	}
	if len(lines) > 1 {
		r.Fields = make(map[string][]byte)
	}
	for _, l := range lines[1:] {
		name, value, ok := strings.Cut(l, "=")
		if ok {
			r.Fields[name] = []byte(value)
		} else {
			r.Fields[name] = nil
		}
	}
	return r
}

// plainRecord reports whether r is what the fast decoder reads without
// falling back: printable ASCII names and key, no nil value, and a
// non-negative commit ts.
func plainRecord(r *wireRecord) bool {
	plain := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
				return false
			}
		}
		return true
	}
	for name, v := range r.Fields {
		if !plain(name) || v == nil {
			return false
		}
	}
	return plain(r.Key) && r.CommitTS >= 0
}

// FuzzRecordCodec holds the record codec to encoding/json. Decoding:
// for any bytes, decodeRecord and decodeRecordPage give what
// json.Unmarshal gives, value for value, and fail exactly when it
// fails. Encoding: whatever record the bytes build, json.Unmarshal of
// appendRecord's output is json.Unmarshal of json.Marshal's output —
// the record itself when its strings are valid UTF-8, with a nil fields
// map back as an empty one — and the fast decoder reads it without
// falling back when it is plain.
func FuzzRecordCodec(f *testing.F) {
	for _, seed := range []string{
		string(appendRecord(nil, ycsbRecord())),
		string(appendRecord(nil, patchBody())),
		"[" + string(appendRecord(nil, &wireRecord{Key: "user1", Version: 3, Fields: map[string][]byte{"f": []byte("v")}})) + "]",
		`[]`,
		`{"fields":{}}`,
		`{"fields":{"fA":"dg=="}}`,
		`{"Fields":{"f":"dg=="}}`,
		`{"fields":{"a":"dg=="},"fields":{"b":"dQ=="}}`,
		`{"fields":{"f":null}}`,
		`{"fields":null}`,
		`[null]`,
		`{"fields":{"f":"dg="}}`,
		"{\"fields\":{\"f\":\"d\ng==\"}}",
		"{\"fields\":{\"f\":\"d\rg==\"}}",
		`{"x":` + strings.Repeat("[", 100_000) + `,"fields":{}}`,
		`{"fields":{}} x`,
		`[] []`,
		" { \"version\" : 18446744073709551615 ,\t\"fields\" : { } }\n",
		`{"version":18446744073709551616,"fields":{}}`,
		`{"version":01,"fields":{}}`,
		`{"commit_ts":-1,"deleted":true,"fields":{"":""},"key":"k\"q","version":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got wireRecord
		wantErr, gotErr := json.Unmarshal(data, &want), decodeRecord(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("decodeRecord(%q) error = %v, json.Unmarshal error = %v", data, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord(%q) = %#v, json.Unmarshal = %#v", data, got, want)
		}
		var wantPage, gotPage []wireRecord
		wantErr, gotErr = json.Unmarshal(data, &wantPage), decodeRecordPage(data, &gotPage)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("decodeRecordPage(%q) error = %v, json.Unmarshal error = %v", data, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(gotPage, wantPage) {
			t.Fatalf("decodeRecordPage(%q) = %#v, json.Unmarshal = %#v", data, gotPage, wantPage)
		}

		r := recordFrom(data)
		enc := appendRecord(nil, &r)
		var back wireRecord
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("appendRecord(%#v) = %q: %v", r, enc, err)
		}
		std, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		var stdBack wireRecord
		if err := json.Unmarshal(std, &stdBack); err != nil {
			t.Fatal(err)
		}
		if stdBack.Fields == nil {
			stdBack.Fields = map[string][]byte{}
		}
		if !reflect.DeepEqual(back, stdBack) {
			t.Fatalf("appendRecord reads back as %#v, json.Marshal as %#v", back, stdBack)
		}
		if utf8.Valid(data) {
			if r.Fields == nil {
				r.Fields = map[string][]byte{}
			}
			if !reflect.DeepEqual(back, r) {
				t.Fatalf("appendRecord(%#v) reads back as %#v", r, back)
			}
		}
		if plainRecord(&r) {
			d := recordDecoder{b: enc}
			if _, ok := d.record(); !ok || !d.end() {
				t.Fatalf("the fast path declined appendRecord's %q", enc)
			}
		}
	})
}

// A scan page is written as encoding/json would write it, whatever its
// keys hold, and an empty one is [].
func TestRecordPageEncodes(t *testing.T) {
	if got := string(appendRecordPage(nil, nil)); got != "[]" {
		t.Errorf("empty page = %q, want []", got)
	}
	kvs := []kvstore.VersionedKV{
		{Key: "plain", Record: &kvstore.VersionedRecord{Version: 1, CommitTS: 10, Fields: map[string][]byte{"f": []byte("v"), "a": {}}}},
		{Key: "q\"uote\\back\x01ctlé\xff<&>", Record: &kvstore.VersionedRecord{Version: 2, Fields: map[string][]byte{"n ": nil}}},
	}
	var got, want []wireRecord
	if err := json.Unmarshal(appendRecordPage(nil, kvs), &got); err != nil {
		t.Fatal(err)
	}
	std := make([]wireRecord, len(kvs))
	for i, kv := range kvs {
		std[i] = wireRecord{Key: kv.Key, Version: kv.Record.Version, CommitTS: kv.Record.CommitTS, Fields: kv.Record.Fields}
	}
	b, _ := json.Marshal(std)
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("page reads back as %#v, want %#v", got, want)
	}
}
