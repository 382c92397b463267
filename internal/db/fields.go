package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// A field section is the one record encoding every layer shares:
//
//	uvarint(n) then n × { uvarint(len) name, uvarint(len) value }
//
// kvstore writes it (a WAL put's tail, the image of every stored
// version) and kvwire carries it (a result's or a page record's fields).
// A section is canonical when its names are strictly increasing. The
// reader lives here, beside Fields, the view that walks a section in
// place; the encoders stay with kvstore.

// ErrBadFields reports a field section that does not parse.
var ErrBadFields = errors.New("db: malformed field section")

// memoNames bounds a positional name memo (see internName).
const memoNames = 64

// Fields is a read-only view of one record's fields, as a scan hands it
// over in KV. It wraps what the binding received: a checked canonical
// field section (a frame page's record, an engine image), walked in
// place and never turned into a map, or a map the binding built or was
// given. Neither is edited once wrapped, so a view may be copied and
// read from any goroutine. Its values — and the names Range yields —
// are the record's own bytes: read-only. The zero Fields has no fields.
type Fields struct {
	sec []byte            // a checked canonical section; nil: m holds the fields
	m   map[string][]byte // the fields when sec is nil
}

// SectionFields views a field section that has passed CheckFields with
// its names in canonical order. The view aliases sec, which nobody may
// edit after.
func SectionFields(sec []byte) Fields { return Fields{sec: sec} }

// MapFields views a field map. The view takes m over: nobody may edit
// it after.
func MapFields(m map[string][]byte) Fields { return Fields{m: m} }

// Len returns the number of fields.
func (f Fields) Len() int {
	if f.sec == nil {
		return len(f.m)
	}
	n, _ := SectionPairs(f.sec)
	return n
}

// Get returns the value of the named field and whether the record has
// it. A value read from a section is never nil.
func (f Fields) Get(name string) ([]byte, bool) {
	if f.sec == nil {
		v, ok := f.m[name]
		return v, ok
	}
	n, b := SectionPairs(f.sec)
	for i := 0; i < n; i++ {
		var nb, val []byte
		nb, val, b = NextPair(b)
		if string(nb) == name {
			return val, true
		}
		if string(nb) > name {
			break // names are sorted: it is not further on
		}
	}
	return nil, false
}

// Range calls fn with each field until fn returns false: in name order
// for a section, in map order for a map. It allocates nothing; a name
// from a section aliases it, like the values.
func (f Fields) Range(fn func(name string, val []byte) bool) {
	if f.sec == nil {
		for name, val := range f.m {
			if !fn(name, val) {
				return
			}
		}
		return
	}
	n, b := SectionPairs(f.sec)
	for i := 0; i < n; i++ {
		var nb, val []byte
		nb, val, b = NextPair(b)
		if !fn(sectionName(nb), val) {
			return
		}
	}
}

// Map returns the fields as a fresh map the caller owns, for a caller
// that really wants one. Its names and values are the record's bytes,
// as Range yields them: the values read-only.
func (f Fields) Map() map[string][]byte {
	out := make(map[string][]byte, f.Len())
	f.Range(func(name string, val []byte) bool {
		out[name] = val
		return true
	})
	return out
}

// Project returns the view narrowed to the named fields the record has:
// f itself when names is nil, else a view of a fresh map.
func (f Fields) Project(names []string) Fields {
	if names == nil {
		return f
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		if v, ok := f.Get(name); ok {
			out[name] = v
		}
	}
	return MapFields(out)
}

// sectionName returns a name read off a section as a string that
// shares its bytes. That is sound because no section a view wraps is
// ever edited, and no name is handed out as a slice: a value's capacity
// ends with it (NextPair), so no append to a value reaches a name.
func sectionName(nb []byte) string {
	return unsafe.String(unsafe.SliceData(nb), len(nb))
}

// SectionPairs splits a section that has passed CheckFields into its
// field count and its pairs, for NextPair to walk.
func SectionPairs(sec []byte) (int, []byte) {
	n, w := binary.Uvarint(sec)
	return int(n), sec[w:]
}

// NextPair reads one name/value pair off the pairs of a checked
// section. The value's capacity ends with it, so an append to it never
// writes into the next field.
func NextPair(b []byte) (name, val, rest []byte) {
	l, w := binary.Uvarint(b)
	name, b = b[w:w+int(l)], b[w+int(l):]
	l, w = binary.Uvarint(b)
	end := w + int(l)
	return name, b[w:end:end], b[end:]
}

// CheckFields validates a field section without decoding it, making
// every check DecodeFields makes: a section it accepts DecodeFields
// decodes, and one it refuses DecodeFields refuses. canonical reports
// names in strictly increasing order.
func CheckFields(sec []byte) (canonical bool, err error) {
	n, rest, err := fieldCount(sec)
	if err != nil {
		return false, err
	}
	canonical = true
	var prev []byte
	for i := 0; i < int(n); i++ {
		var nb []byte
		if nb, rest, err = readBytes(rest); err != nil {
			return false, err
		}
		if _, rest, err = readBytes(rest); err != nil {
			return false, err
		}
		if i > 0 && string(nb) <= string(prev) {
			canonical = false
		}
		prev = nb
	}
	if len(rest) != 0 {
		return false, fmt.Errorf("%w: %d bytes after the last field", ErrBadFields, len(rest))
	}
	return canonical, nil
}

// DecodeFields parses a whole field section into a map whose values
// are sub-slices of sec — the caller hands sec over, or copies it
// first. names, when non-nil, is the caller's positional memo (see
// internName). canonical reports names in strictly increasing order,
// which makes sec usable as a record image as it stands. Duplicate and
// unsorted names are accepted (last one wins); a section that ends
// early, runs past its last field or claims more fields than it has
// bytes for is ErrBadFields, before anything is sized from the claim.
func DecodeFields(sec []byte, names *[]string) (fields map[string][]byte, canonical bool, err error) {
	n, rest, err := fieldCount(sec)
	if err != nil {
		return nil, false, err
	}
	if names != nil && *names == nil {
		*names = make([]string, 0, min(n, memoNames))
	}
	fields = make(map[string][]byte, n)
	canonical = true
	prev := ""
	for i := 0; i < int(n); i++ {
		var nb, val []byte
		if nb, rest, err = readBytes(rest); err != nil {
			return nil, false, err
		}
		if val, rest, err = readBytes(rest); err != nil {
			return nil, false, err
		}
		name := internName(names, i, nb)
		if i > 0 && name <= prev {
			canonical = false
		}
		prev = name
		fields[name] = val[:len(val):len(val)]
	}
	if len(rest) != 0 {
		return nil, false, fmt.Errorf("%w: %d bytes after the last field", ErrBadFields, len(rest))
	}
	return fields, canonical, nil
}

// fieldCount reads a section's field count, refusing a count the
// section has no room for before anything is sized from it.
func fieldCount(sec []byte) (uint64, []byte, error) {
	n, w := binary.Uvarint(sec)
	if w <= 0 {
		return 0, nil, fmt.Errorf("%w: bad field count", ErrBadFields)
	}
	rest := sec[w:]
	// A field costs at least two bytes (two zero lengths).
	if n > uint64(len(rest)/2) {
		return 0, nil, fmt.Errorf("%w: %d fields claimed in %d bytes", ErrBadFields, n, len(rest))
	}
	return n, rest, nil
}

var errFieldTruncated = fmt.Errorf("%w: truncated", ErrBadFields)

// readBytes splits one length-prefixed byte string off buf.
func readBytes(buf []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return nil, nil, errFieldTruncated
	}
	return buf[n : n+int(l)], buf[n+int(l):], nil
}

// internName returns name as a string: the memo's copy when position i
// of the last record decoded held the same name — no allocation, the
// comparison does not build a string — and a new string, remembered at
// i, otherwise. Records of one table carry the same names in the same
// sorted order, so every record after the first shares one set of name
// strings. A nil memo remembers nothing.
func internName(memo *[]string, i int, name []byte) string {
	if memo == nil {
		return string(name)
	}
	m := *memo
	if i < len(m) && m[i] == string(name) {
		return m[i]
	}
	s := string(name)
	if i < len(m) {
		m[i] = s
	} else if i == len(m) && i < memoNames {
		*memo = append(m, s)
	}
	return s
}
