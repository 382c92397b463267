package httpkv

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"ycsbt/internal/kvstore"
)

// The record codec: every body that carries records over REST — a GET's
// record, a PUT or PATCH body, a scan page — is written and read here
// instead of through encoding/json's reflection. The wire format does
// not change: it is wireRecord's JSON, which any JSON client (curl, the
// CI smoke steps) still reads and writes.
//
// The decoders parse only the shape the encoders write, give or take
// insignificant whitespace. Anything else — escapes, non-ASCII bytes,
// null, unknown, duplicate or differently-cased member names, numbers
// that are not plain digits fitting the field, bad base64 — is declined
// and handed to json.Unmarshal, whose value or error is the answer. So
// what is accepted, rejected and decoded is exactly what encoding/json
// makes of the body; FuzzRecordCodec holds the two side by side.

// appendRecord appends r to dst as one JSON object: members in name
// order, key and commit_ts omitted at their zero values (as
// wireRecord's tags say), field names sorted and values in padded
// standard base64. A nil value is written as null, as encoding/json
// writes it; a nil fields map is written as {}, so it decodes as an
// empty map, never as nil.
func appendRecord(dst []byte, r *wireRecord) []byte {
	dst = appendRecordHead(dst, r.CommitTS)
	type field struct {
		name  string
		value []byte
	}
	var inline [16]field // a record of up to 16 fields sorts without allocating
	fields := inline[:0]
	for name, value := range r.Fields {
		fields = append(fields, field{name, value})
	}
	slices.SortFunc(fields, func(a, b field) int { return strings.Compare(a.name, b.name) })
	for i, f := range fields {
		dst = appendField(dst, i, f.name, f.value)
	}
	return appendRecordTail(dst, r.Key, r.Version)
}

// appendStored appends a stored version under key as appendRecord
// writes its wireRecord, straight from the image: its fields are in
// name order already, and no map is built or sorted. A value stored
// empty — or null — is written as "".
func appendStored(dst []byte, key string, rec *kvstore.VersionedRecord) []byte {
	dst = appendRecordHead(dst, rec.CommitTS)
	i := 0
	rec.Range(func(name string, value []byte) bool {
		dst = appendField(dst, i, name, value)
		i++
		return true
	})
	return appendRecordTail(dst, key, rec.Version)
}

// appendRecordHead opens a record object up to its fields' members.
func appendRecordHead(dst []byte, commitTS int64) []byte {
	dst = append(dst, '{')
	if commitTS != 0 {
		dst = append(dst, `"commit_ts":`...)
		dst = strconv.AppendInt(dst, commitTS, 10)
		dst = append(dst, ',')
	}
	return append(dst, `"fields":{`...)
}

// appendField appends the i-th member of a fields object.
func appendField(dst []byte, i int, name string, value []byte) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = appendString(dst, name)
	dst = append(dst, ':')
	if value == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, value)
	return append(dst, '"')
}

// appendRecordTail closes the fields object and the record.
func appendRecordTail(dst []byte, key string, version uint64) []byte {
	dst = append(dst, '}')
	if key != "" {
		dst = append(dst, `,"key":`...)
		dst = appendString(dst, key)
	}
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendUint(dst, version, 10)
	return append(dst, '}')
}

// appendRecordPage appends one scan page: a JSON array of kvs as
// wireRecords, [] when there are none.
func appendRecordPage(dst []byte, kvs []kvstore.VersionedKV) []byte {
	dst = append(dst, '[')
	for i, kv := range kvs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStored(dst, kv.Key, kv.Record)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string. Quotes, backslashes and
// control bytes are escaped; invalid UTF-8 becomes U+FFFD, as
// encoding/json writes it.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, s[start:i]...)
				dst = append(dst, "\ufffd"...)
				start = i + 1
			}
			i += size
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		if c == '"' || c == '\\' {
			dst = append(dst, '\\', c)
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeRecord decodes one record body into r, which must be zero,
// exactly as json.Unmarshal would. The fields map is fresh and its
// values share one slab: nothing in r aliases data.
func decodeRecord(data []byte, r *wireRecord) error {
	d := recordDecoder{b: data}
	if rec, ok := d.record(); ok && d.end() {
		*r = rec
		return nil
	}
	return json.Unmarshal(data, r)
}

// decodeRecordPage decodes one scan page into page, which must be nil,
// exactly as json.Unmarshal would: [] is an empty, non-nil page.
func decodeRecordPage(data []byte, page *[]wireRecord) error {
	d := recordDecoder{b: data}
	if recs, ok := d.page(); ok && d.end() {
		*page = recs
		return nil
	}
	return json.Unmarshal(data, page)
}

// recordDecoder is the fast path's cursor over one body. Each method
// skips leading whitespace and reports false for anything outside the
// canonical shape, leaving the caller to decline the whole body.
type recordDecoder struct {
	b []byte
	i int
}

func (d *recordDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume reports whether the next token is c, and moves past it if so.
func (d *recordDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *recordDecoder) end() bool {
	d.skipSpace()
	return d.i == len(d.b)
}

// str reads a string of printable ASCII without escapes, returning its
// contents as offsets into b.
func (d *recordDecoder) str() (start, end int, ok bool) {
	if !d.consume('"') {
		return 0, 0, false
	}
	start = d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			break
		}
		d.i++
	}
	if d.i == len(d.b) || d.b[d.i] != '"' {
		return 0, 0, false
	}
	d.i++
	return start, d.i - 1, true
}

// value reads a field value's string, returning its contents as offsets
// into b. It only finds the closing quote: base64 decoding rejects every
// byte str would, escapes included, except the line breaks it skips and
// a JSON string may not hold raw.
func (d *recordDecoder) value() (start, end int, ok bool) {
	if !d.consume('"') {
		return 0, 0, false
	}
	start = d.i
	n := bytes.IndexByte(d.b[start:], '"')
	if n < 0 {
		return 0, 0, false
	}
	v := d.b[start : start+n]
	if bytes.IndexByte(v, '\n') >= 0 || bytes.IndexByte(v, '\r') >= 0 {
		return 0, 0, false
	}
	d.i = start + n + 1
	return start, start + n, true
}

// digits reads an unsigned integer no larger than limit: plain digits,
// no leading zero.
func (d *recordDecoder) digits(limit uint64) (uint64, bool) {
	d.skipSpace()
	start := d.i
	var v uint64
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		digit := uint64(d.b[d.i] - '0')
		if v > (limit-digit)/10 {
			return 0, false
		}
		v = v*10 + digit
	}
	n := d.i - start
	return v, n == 1 || (n > 1 && d.b[start] != '0')
}

// page reads a JSON array of records.
func (d *recordDecoder) page() ([]wireRecord, bool) {
	if !d.consume('[') {
		return nil, false
	}
	page := []wireRecord{}
	if d.consume(']') {
		return page, true
	}
	for {
		r, ok := d.record()
		if !ok {
			return nil, false
		}
		page = append(page, r)
		if d.consume(']') {
			return page, true
		}
		if !d.consume(',') {
			return nil, false
		}
	}
}

// record reads one wireRecord object, each member at most once.
func (d *recordDecoder) record() (wireRecord, bool) {
	var r wireRecord
	if !d.consume('{') {
		return r, false
	}
	if d.consume('}') {
		return r, true
	}
	var seen uint8 // one bit per member read
	for {
		start, end, ok := d.str()
		if !ok || !d.consume(':') {
			return r, false
		}
		var member uint8
		switch string(d.b[start:end]) {
		case "commit_ts":
			var ts uint64
			ts, ok = d.digits(math.MaxInt64)
			member, r.CommitTS = 1<<0, int64(ts)
		case "fields":
			member = 1 << 1
			r.Fields, ok = d.fields()
		case "key":
			member = 1 << 2
			start, end, ok = d.str()
			r.Key = string(d.b[start:end])
		case "version":
			member = 1 << 3
			r.Version, ok = d.digits(math.MaxUint64)
		default:
			return r, false
		}
		if !ok || seen&member != 0 {
			return r, false
		}
		seen |= member
		if d.consume('}') {
			return r, true
		}
		if !d.consume(',') {
			return r, false
		}
	}
}

// fields reads the fields object: a first pass finds every member and
// sizes the result, then one slab takes every decoded value and one
// string every name. A repeated name keeps its last value, as
// encoding/json keeps it.
func (d *recordDecoder) fields() (map[string][]byte, bool) {
	if !d.consume('{') {
		return nil, false
	}
	type member struct{ name0, name1, val0, val1 int }
	var inline [16]member // a record of up to 16 fields is found without allocating
	members := inline[:0]
	slab, names := 0, 0
	if !d.consume('}') {
		for {
			n0, n1, ok := d.str()
			if !ok || !d.consume(':') {
				return nil, false
			}
			v0, v1, ok := d.value()
			if !ok {
				return nil, false
			}
			members = append(members, member{n0, n1, v0, v1})
			names += n1 - n0
			slab += base64.StdEncoding.DecodedLen(v1 - v0)
			if d.consume('}') {
				break
			}
			if !d.consume(',') {
				return nil, false
			}
		}
	}
	vals := make([]byte, slab)
	var nb strings.Builder
	nb.Grow(names)
	for _, m := range members {
		nb.Write(d.b[m.name0:m.name1])
	}
	all := nb.String()
	fields := make(map[string][]byte, len(members))
	for _, m := range members {
		n, err := base64.StdEncoding.Decode(vals, d.b[m.val0:m.val1])
		if err != nil {
			return nil, false
		}
		name := m.name1 - m.name0
		fields[all[:name]] = vals[:n:n]
		all, vals = all[name:], vals[n:]
	}
	return fields, true
}
