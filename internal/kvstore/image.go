package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// One encoding per record. A field section is
//
//	uvarint(n) then n × { uvarint(len) name, uvarint(len) value }
//
// and it is the same bytes in three places: the tail of a WAL put
// payload, the length-prefixed field section of a kvwire result or
// stream record, and — for every record stored whole — the record's
// image, one slab the Fields map's values point into. The image is
// canonical (names strictly increasing), so equal records have equal
// bytes and an encoder that holds an image emits it with one copy.
// Merge-updated records share their untouched values with the version
// before and carry no image; they, and maps handed in by callers, go
// through AppendFields.

// ErrBadFields reports a field section that does not parse.
var ErrBadFields = errors.New("kvstore: malformed field section")

// memoNames bounds a positional name memo (see internName).
const memoNames = 64

// Image returns the record's canonical field section, or nil when the
// record has none (a merge-updated version, a tombstone, a record built
// outside the engine). It is engine-owned and immutable like Fields.
func (v *VersionedRecord) Image() []byte { return v.image }

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

// field is one name/value pair on its way into an image.
type field struct {
	name string
	val  []byte
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// buildFields copies a caller's field map into a fresh image and the
// map over it: one allocation for every value, names sorted, and name
// strings shared with the partition's previous record. p.names is that
// record's sorted names: a record of the same shape — every record of a
// YCSB table — is read out of the caller's map in that order, with no
// sort. Requires p.mu (write) or single-threaded open. The caller keeps
// ownership of fields and everything in it.
func (p *partition) buildFields(fields map[string][]byte) ([]byte, map[string][]byte) {
	var scratch [16]field
	fs := scratch[:0]
	if len(fields) == len(p.names) {
		for _, name := range p.names {
			val, ok := fields[name]
			if !ok {
				break
			}
			fs = append(fs, field{name, val})
		}
	}
	if len(fs) != len(fields) { // another shape: sort it, and remember it
		fs = fs[:0]
		for name, val := range fields {
			fs = append(fs, field{name, val})
		}
		slices.SortFunc(fs, func(a, b field) int { return strings.Compare(a.name, b.name) })
		p.names = p.names[:0]
		for _, f := range fs[:min(len(fs), memoNames)] {
			p.names = append(p.names, f.name)
		}
	}
	size := uvarintLen(len(fs))
	for _, f := range fs {
		size += uvarintLen(len(f.name)) + len(f.name) + uvarintLen(len(f.val)) + len(f.val)
	}
	image := binary.AppendUvarint(make([]byte, 0, size), uint64(len(fs)))
	out := make(map[string][]byte, len(fs))
	for _, f := range fs {
		image = appendString(image, f.name)
		image = appendBytes(image, f.val)
		out[f.name] = image[len(image)-len(f.val) : len(image) : len(image)]
	}
	return image, out
}

// newRecord builds the stored form of a full record: buildFields' image
// and map under a version and commit ts. Same locking as buildFields.
func (p *partition) newRecord(version uint64, commitTS int64, fields map[string][]byte) *VersionedRecord {
	rec := &VersionedRecord{Version: version, CommitTS: commitTS}
	rec.image, rec.Fields = p.buildFields(fields)
	return rec
}

// AppendFields encodes a field map as a field section, in map order.
// It is the encoder for maps that have no image: a caller's put on its
// way to a server, a merge-updated record on its way to the WAL.
func AppendFields(buf []byte, fields map[string][]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for name, val := range fields {
		buf = appendString(buf, name)
		buf = appendBytes(buf, val)
	}
	return buf
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
	n, w := binary.Uvarint(sec)
	if w <= 0 {
		return nil, false, fmt.Errorf("%w: bad field count", ErrBadFields)
	}
	rest := sec[w:]
	// A field costs at least two bytes (two zero lengths).
	if n > uint64(len(rest)/2) {
		return nil, false, fmt.Errorf("%w: %d fields claimed in %d bytes", ErrBadFields, n, len(rest))
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
