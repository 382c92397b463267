package kvwire

import (
	"encoding/binary"
	"fmt"

	"ycsbt/internal/db"
)

// Scans on the framed protocol are paged requests, the pull model the
// HTTP scan route uses too: the client asks for one page, the server
// answers with exactly one frame, and the client asks again — from
// where the page says the next one starts — only if it wants more. The
// server keeps nothing for a scan between two pages. The migration copy
// is such a scan too, which the destination runs against the source
// (httpkv's copy route).
//
//	4 scan-request — table, start, varint count, varint slot: asks
//	                 for one page, answered by a page or an error
//	                 frame under the same request id.
//	5 page         — uvarint record count, records, varint map version,
//	                 bytes next-start: at most ScanPageCap records, cut
//	                 once the encoded records reach scanPageBytes. The
//	                 next-start is empty when the scan is exhausted.
//
// A frame sent the wrong way (a page to the server, a scan request to
// the client) is an unknown frame there, and the connection is closed.

// Scan frame types (continuing the request/response/error space).
const (
	frameScanReq = 4
	framePage    = 5
)

// scanPageBytes bounds one page frame: a page stops taking records once
// its encoded records reach it, keeping frames well under
// MaxFramePayload.
const scanPageBytes = 256 << 10

// ScanRequest names one scan. Count < 0 means unlimited (every page is
// still bounded by ScanPageCap and scanPageBytes), Slot < 0 means no
// slot filter.
type ScanRequest struct {
	Table string
	Start string
	Count int
	Slot  int
}

// StreamRecord is one record of a scan page: a versioned head read,
// which is everything the migration copy's version- and
// commit-ts-preserving ingest needs.
//
// A page record keeps its field section as the page carried it, checked
// but not decoded, and View walks it in place: no reader — a scan
// handing its records on, a record the router's merge drops, a
// migration copy that stores the section as it stands — pays for a map.
// A record built from a map (a REST page) carries it in Fields instead,
// and so does a page record whose section has its names out of
// canonical order (no engine writes one), decoded beside the section.
type StreamRecord struct {
	Key      string
	Version  uint64
	CommitTS int64
	Fields   map[string][]byte

	// section is the page record's field section (nil: none, or the
	// record was built around Fields); it aliases the page.
	section []byte
}

// Section returns the record's field section as the page carried it:
// nil for a record without one. It aliases the page: read-only.
func (r *StreamRecord) Section() []byte { return r.section }

// View returns the record's fields as a read-only db.Fields: the page's
// checked canonical section walked in place, or Fields. It aliases the
// page, and shares nothing a stream goes on to edit, so it may be read
// on any goroutine.
func (r *StreamRecord) View() db.Fields {
	if r.Fields != nil || r.section == nil {
		return db.MapFields(r.Fields)
	}
	return db.SectionFields(r.section)
}

// recFlagFields is a page record's one flag: a field section follows.
// Any other bit — bit 0 marked a deleted record once — is refused.
const recFlagFields = 1 << 1

// AppendScanRequest encodes one scan-request frame.
func AppendScanRequest(buf []byte, id uint64, req *ScanRequest) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameScanReq, id)
	buf = appendBytes(buf, req.Table)
	buf = appendBytes(buf, req.Start)
	buf = binary.AppendVarint(buf, int64(req.Count))
	buf = binary.AppendVarint(buf, int64(req.Slot))
	return finishFrame(buf, off)
}

// DecodeScanRequest parses a scan-request payload.
func DecodeScanRequest(payload []byte) (req ScanRequest, err error) {
	if req.Table, payload, err = readString(payload); err != nil {
		return req, err
	}
	if req.Start, payload, err = readString(payload); err != nil {
		return req, err
	}
	var v int64
	if v, payload, err = readVarint(payload); err != nil {
		return req, err
	}
	req.Count = int(v)
	if v, payload, err = readVarint(payload); err != nil {
		return req, err
	}
	req.Slot = int(v)
	if len(payload) != 0 {
		return req, fmt.Errorf("kvwire: %d trailing bytes after scan request", len(payload))
	}
	return req, nil
}

// appendPageHead opens a page frame. The record count is written as a
// two-byte uvarint whatever its value, so finishPage can patch it once
// the page is cut; decoders accept the padded form.
func appendPageHead(buf []byte, id uint64) []byte {
	return append(appendFrameHeader(buf, framePage, id), 0, 0)
}

// finishPage closes the page frame opened at off holding n records.
func finishPage(buf []byte, off, n int, mapVersion int64, next string) []byte {
	at := off + frameHeaderLen
	buf[at], buf[at+1] = byte(n)|0x80, byte(n>>7)
	buf = binary.AppendVarint(buf, mapVersion)
	buf = appendBytes(buf, next)
	return finishFrame(buf, off)
}

// appendStreamRecord appends one page record whose fields are the
// field section sec (a stored image, copied as it stands; nil: none).
func appendStreamRecord(buf []byte, key string, version uint64, commitTS int64, sec []byte) []byte {
	var flags byte
	if sec != nil {
		flags |= recFlagFields
	}
	buf = append(buf, flags)
	buf = appendBytes(buf, key)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendVarint(buf, commitTS)
	if sec != nil {
		buf = append(binary.AppendUvarint(buf, uint64(len(sec))), sec...)
	}
	return buf
}

// scanPage is one decoded page.
type scanPage struct {
	recs   []StreamRecord
	mapVer int64
	next   string
}

// DecodePage parses a page payload. Each record's field section is
// checked, not decoded, and aliases payload, so the caller hands payload
// over for as long as it keeps the records.
func DecodePage(payload []byte) (recs []StreamRecord, mapVersion int64, next string, err error) {
	p, err := decodePage(payload)
	return p.recs, p.mapVer, p.next, err
}

func decodePage(payload []byte) (p scanPage, err error) {
	count, payload, err := readUvarint(payload)
	if err != nil {
		return p, err
	}
	if count > ScanPageCap {
		return p, fmt.Errorf("kvwire: page claims %d records (max %d)", count, ScanPageCap)
	}
	// Every record costs at least 4 bytes (flags, zero-length key,
	// version, commit ts); a larger claim is lying about the payload.
	if count > uint64(len(payload)/4)+1 {
		return p, errTruncated
	}
	recs := make([]StreamRecord, 0, count)
	for i := uint64(0); i < count; i++ {
		var r StreamRecord
		if r, payload, err = readStreamRecord(payload); err != nil {
			return p, err
		}
		recs = append(recs, r)
	}
	if p.mapVer, payload, err = readVarint(payload); err != nil {
		return p, err
	}
	if p.next, payload, err = readString(payload); err != nil {
		return p, err
	}
	if len(payload) != 0 {
		return p, fmt.Errorf("kvwire: %d trailing bytes after page", len(payload))
	}
	p.recs = recs
	return p, nil
}

func readStreamRecord(b []byte) (StreamRecord, []byte, error) {
	var r StreamRecord
	if len(b) < 1 {
		return r, b, errTruncated
	}
	flags := b[0]
	if flags&^recFlagFields != 0 {
		return r, b, fmt.Errorf("kvwire: unknown record flags %#x", flags)
	}
	b = b[1:]
	var err error
	if r.Key, b, err = readString(b); err != nil {
		return r, b, err
	}
	if r.Version, b, err = readUvarint(b); err != nil {
		return r, b, err
	}
	if r.CommitTS, b, err = readVarint(b); err != nil {
		return r, b, err
	}
	if flags&recFlagFields != 0 {
		var canonical bool
		if r.section, canonical, b, err = checkSection(b); err != nil {
			return r, b, err
		}
		if !canonical {
			r.Fields, _, _ = db.DecodeFields(r.section, nil) // checked: cannot fail
		}
	}
	return r, b, nil
}
