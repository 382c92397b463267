package kvstore

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strings"

	"ycsbt/internal/db"
)

// One encoding per record. A field section is
//
//	uvarint(n) then n × { uvarint(len) name, uvarint(len) value }
//
// and it is the same bytes in three places: the tail of a WAL put
// payload, the length-prefixed field section of a kvwire result or page
// record, and the image of every version the engine stores. A stored
// version is its image and nothing else: the image is canonical (names
// strictly increasing), so equal records have equal bytes, an encoder
// emits a stored record with one copy, and a reader finds a field by
// walking it. Maps exist only at the edges: the caller's map a put
// brings in (buildImage), and the fresh map a reader asks for
// (VersionedRecord.Project); a scan hands its records on as db.Fields
// views of their images (VersionedRecord.View). A version's shape — its
// image's names as strings, shared by every version the partition
// stored with the same names — keeps that map from allocating its keys.

// emptyImage is the image of a record with no fields.
var emptyImage = []byte{0}

// shape is the sorted field names of an image. It is immutable once a
// version points at it.
type shape struct{ names []string }

// Image returns the record's canonical field section: the stored image,
// or for a record built around a map outside the engine a fresh
// encoding of the map. Nil for a tombstone. It is engine-owned and
// immutable.
func (v *VersionedRecord) Image() []byte {
	if v.image == nil && v.Fields != nil {
		var scratch [16]field
		return encodeImage(sortedFields(scratch[:0], v.Fields))
	}
	return v.image
}

// View returns the record's fields as a db.Fields: its image walked in
// place, or the map it was built around. A tombstone's has no fields.
func (v *VersionedRecord) View() db.Fields {
	if v.image == nil {
		return db.MapFields(v.Fields)
	}
	return db.SectionFields(v.image)
}

// NewImageRecord builds a record outside the engine around a field
// section it did not store — a page record a remote scan delivered —
// which must have passed db.CheckFields with its names in canonical
// order. The record takes image over: nobody may edit it after.
func NewImageRecord(version uint64, commitTS int64, image []byte) *VersionedRecord {
	return &VersionedRecord{Version: version, CommitTS: commitTS, image: image}
}

// Field returns the value of the named field, or nil when the record
// has no such field. A value read from an image is never nil, so a
// field stored empty (or null) reads back as an empty slice.
func (v *VersionedRecord) Field(name string) []byte {
	val, _ := v.View().Get(name)
	return val
}

// Range calls fn with each field in name order until fn returns false.
// Values are the record's own: read-only.
func (v *VersionedRecord) Range(fn func(name string, val []byte) bool) {
	if v.image != nil {
		db.SectionFields(v.image).Range(fn)
		return
	}
	var scratch [16]field
	for _, f := range sortedFields(scratch[:0], v.Fields) {
		if !fn(f.name, f.val) {
			return
		}
	}
}

// Project returns a fresh map of the named fields the record has — all
// of them when names is nil — ready to hand to a caller as its own. The
// values are the record's: read-only.
func (v *VersionedRecord) Project(names []string) map[string][]byte {
	if v.image == nil {
		return db.ProjectFields(v.Fields, names)
	}
	n, b := db.SectionPairs(v.image)
	if names == nil {
		out := make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			var nb, val []byte
			nb, val, b = db.NextPair(b)
			out[v.name(i, nb)] = val
		}
		return out
	}
	out := make(map[string][]byte, len(names))
	for i := 0; i < n; i++ {
		var nb, val []byte
		nb, val, b = db.NextPair(b)
		for _, f := range names {
			if f == string(nb) {
				out[f] = val
				break
			}
		}
	}
	return out
}

// FieldMap returns the record as a map to read, never to edit: Fields
// itself when the record carries one, else Project(nil) — a fresh map
// of an engine version's image.
func (v *VersionedRecord) FieldMap() map[string][]byte {
	if v.Fields != nil {
		return v.Fields
	}
	return v.Project(nil)
}

// name is the i-th name of the record's image as a string: the shape's
// when there is one, a new string otherwise.
func (v *VersionedRecord) name(i int, nb []byte) string {
	if v.shape != nil {
		return v.shape.names[i]
	}
	return string(nb)
}

// withFields is a copy of v's data with Fields decoded beside the
// image, for a caller that reads the map. It carries no chain link.
func (v *VersionedRecord) withFields() *VersionedRecord {
	return &VersionedRecord{Version: v.Version, CommitTS: v.CommitTS, Fields: v.Project(nil), image: v.image, shape: v.shape}
}

// field is one name/value pair on its way into an image.
type field struct {
	name string
	val  []byte
}

func compareFields(a, b field) int { return strings.Compare(a.name, b.name) }

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// sortedFields appends the pairs of a field map to fs in name order.
func sortedFields(fs []field, fields map[string][]byte) []field {
	for name, val := range fields {
		fs = append(fs, field{name, val})
	}
	slices.SortFunc(fs, compareFields)
	return fs
}

// encodeImage encodes sorted pairs as a fresh image of exactly its size.
func encodeImage(fs []field) []byte {
	size := uvarintLen(len(fs))
	for _, f := range fs {
		size += uvarintLen(len(f.name)) + len(f.name) + uvarintLen(len(f.val)) + len(f.val)
	}
	image := binary.AppendUvarint(make([]byte, 0, size), uint64(len(fs)))
	for _, f := range fs {
		image = appendBytes(appendString(image, f.name), f.val)
	}
	return image
}

// buildImage copies a caller's field map into a fresh image. A map of
// the partition's last shape — every record of a YCSB table — is read
// out in that shape's order, with no sort. Requires p.mu (write) or
// single-threaded open. The caller keeps ownership of fields and
// everything in it.
func (p *partition) buildImage(fields map[string][]byte) ([]byte, *shape) {
	var scratch [16]field
	fs := scratch[:0]
	if p.shape != nil && len(fields) == len(p.shape.names) {
		for _, name := range p.shape.names {
			val, ok := fields[name]
			if !ok {
				break
			}
			fs = append(fs, field{name, val})
		}
		if len(fs) == len(fields) {
			return encodeImage(fs), p.shape
		}
	}
	fs = sortedFields(fs[:0], fields)
	return encodeImage(fs), p.shapeOf(fs)
}

// mergeImage builds the image of cur with fields laid over it: one pass
// over cur's sorted pairs and fields' sorted names, then one encode.
// Untouched values are copied from cur's image, so the new version
// shares nothing with the old. Same locking as buildImage.
func (p *partition) mergeImage(cur *VersionedRecord, fields map[string][]byte) ([]byte, *shape) {
	var updates, merged [16]field
	ups := sortedFields(updates[:0], fields)
	out := merged[:0]
	n, b := db.SectionPairs(cur.image)
	j := 0
	for i := 0; i < n; i++ {
		var nb, val []byte
		nb, val, b = db.NextPair(b)
		for j < len(ups) && ups[j].name < string(nb) {
			out = append(out, ups[j])
			j++
		}
		if j < len(ups) && ups[j].name == string(nb) {
			out = append(out, ups[j])
			j++
			continue
		}
		out = append(out, field{cur.name(i, nb), val})
	}
	out = append(out, ups[j:]...)
	if len(out) == n && cur.shape != nil {
		return encodeImage(out), cur.shape // the same names as cur
	}
	return encodeImage(out), p.shapeOf(out)
}

// shapeOf returns the shape of sorted pairs: the partition's last one
// when the names match, else a new one, which becomes the last. Same
// locking as buildImage.
func (p *partition) shapeOf(fs []field) *shape {
	if s := p.shape; s != nil && len(s.names) == len(fs) {
		match := true
		for i, f := range fs {
			if s.names[i] != f.name {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
	s := &shape{names: make([]string, len(fs))}
	for i, f := range fs {
		s.names[i] = f.name
	}
	p.shape = s
	return s
}

// shapeOfImage is shapeOf for an image that arrived encoded (WAL
// replay, Ingest): its names are compared in place, and copied out only
// when they make a new shape.
func (p *partition) shapeOfImage(image []byte) *shape {
	n, body := db.SectionPairs(image)
	if s := p.shape; s != nil && len(s.names) == n {
		b, i := body, 0
		for ; i < n; i++ {
			var nb []byte
			nb, _, b = db.NextPair(b)
			if s.names[i] != string(nb) {
				break
			}
		}
		if i == n {
			return s
		}
	}
	s := &shape{names: make([]string, n)}
	for i := range s.names {
		var nb []byte
		nb, _, body = db.NextPair(body)
		s.names[i] = string(nb)
	}
	p.shape = s
	return s
}

// newRecord builds the stored form of a caller's full record under a
// version and commit ts. Same locking as buildImage.
func (p *partition) newRecord(version uint64, commitTS int64, fields map[string][]byte) *VersionedRecord {
	rec := &VersionedRecord{Version: version, CommitTS: commitTS}
	rec.image, rec.shape = p.buildImage(fields)
	return rec
}

// imageRecord is newRecord for an image already canonical and owned by
// the engine (see ownImage).
func (p *partition) imageRecord(version uint64, commitTS int64, image []byte) *VersionedRecord {
	return &VersionedRecord{Version: version, CommitTS: commitTS, image: image, shape: p.shapeOfImage(image)}
}

// ownImage turns a field section into an image the caller may hand the
// engine to keep: a canonical section is copied as it stands, anything
// else is decoded and re-encoded in name order (duplicate names: the
// last one wins). A nil section is an empty record.
func ownImage(sec []byte) ([]byte, error) {
	if sec == nil {
		return emptyImage, nil
	}
	canonical, err := db.CheckFields(sec)
	switch {
	case err != nil:
		return nil, err
	case canonical:
		return append(make([]byte, 0, len(sec)), sec...), nil
	}
	return canonicalImage(sec)
}

// canonicalImage re-encodes a checked section whose names are not in
// canonical order.
func canonicalImage(sec []byte) ([]byte, error) {
	fields, _, err := db.DecodeFields(sec, nil)
	if err != nil {
		return nil, err
	}
	var scratch [16]field
	return encodeImage(sortedFields(scratch[:0], fields)), nil
}

// AppendFields encodes a field map as a field section, in map order.
// It is the encoder for maps: a caller's put on its way to a server.
func AppendFields(buf []byte, fields map[string][]byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for name, val := range fields {
		buf = appendString(buf, name)
		buf = appendBytes(buf, val)
	}
	return buf
}
