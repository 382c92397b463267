package kvwire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ycsbt/internal/kvstore"
)

// The streaming half of the framed protocol: a scan moves as a
// sequence of bounded chunk frames instead of one monolithic response,
// governed by credit-based flow control so the server's memory is
// bounded by the client's granted window, not by the result size.
// Streams run one way only: the server produces, the client consumes.
// The migration copy is such a scan too, which the destination opens
// on the source (httpkv's copy route).
//
//	4 scan-request  — table, start, varint count, varint as-of ts,
//	                  varint slot, uvarint credits: opens a scan
//	                  stream; the request id names the stream.
//	5 chunk         — varint map-version echo, uvarint record count,
//	                  records: one bounded slice of a stream, server →
//	                  client only.
//	6 stream-end    — uvarint status, varint map-version, uvarint
//	                  record count, msg bytes: terminates a stream.
//	                  Status 200 is the server's clean end; 0 from the
//	                  client means cancel; anything else is the error
//	                  that killed the stream.
//	7 credit        — uvarint n: the client grants the server n more
//	                  chunk frames, client → server only. A producer
//	                  that has exhausted its credits blocks; one that
//	                  sends past them is violating the protocol and
//	                  the client closes the connection.
//
// A frame sent the wrong way (a chunk to the server, a credit to the
// client) is an unknown frame there, and the connection is closed.
//
// Streams share the connection with pipelined request/response
// frames: chunk frames interleave with ordinary responses under the
// same per-connection write lock, so one slow scan never parks the
// point lookups pipelined next to it.

// Streaming frame types (continuing the request/response/error space).
const (
	frameScanReq   = 4
	frameChunk     = 5
	frameStreamEnd = 6
	frameCredit    = 7
)

// MaxChunkRecords bounds the records one chunk frame may claim.
const MaxChunkRecords = 1024

// maxStreamWindow bounds a credit grant: windows are meant to be a
// handful of chunks, so a grant beyond this is a lying or corrupt
// frame, not a generous consumer.
const maxStreamWindow = 1 << 16

// streamChunkRecords / streamChunkBytes bound one encoded chunk on
// the producer side: a chunk flushes at whichever limit it hits
// first, keeping frames well under MaxFramePayload.
const (
	streamChunkRecords = 256
	streamChunkBytes   = 256 << 10
)

// DefaultStreamWindow is the credit window consumers grant when the
// caller does not choose one: enough chunks in flight to hide one
// round trip, small enough that an abandoned stream strands little.
const DefaultStreamWindow = 4

// ScanRequest names one streaming scan. Count < 0 means unlimited
// (cluster-internal drains), Slot < 0 means no slot filter.
type ScanRequest struct {
	Table string
	Start string
	Count int
	AsOf  int64
	Slot  int
	// Window is the initial credit grant (chunks the server may send
	// before blocking); 0 means DefaultStreamWindow.
	Window int
}

// StreamRecord is one record on a scan stream: a versioned head read,
// which is everything the migration copy's version- and
// commit-ts-preserving ingest needs.
type StreamRecord struct {
	Key      string
	Version  uint64
	CommitTS int64
	Fields   map[string][]byte
}

// recFlagFields is a stream record's one flag: a field section
// follows. Any other bit — bit 0 marked a deleted record once — is
// refused.
const recFlagFields = 1 << 1

// AppendScanRequest encodes one scan-request frame.
func AppendScanRequest(buf []byte, id uint64, req *ScanRequest) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameScanReq, id)
	buf = appendBytes(buf, req.Table)
	buf = appendBytes(buf, req.Start)
	buf = binary.AppendVarint(buf, int64(req.Count))
	buf = binary.AppendVarint(buf, req.AsOf)
	buf = binary.AppendVarint(buf, int64(req.Slot))
	window := req.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	buf = binary.AppendUvarint(buf, uint64(window))
	return finishFrame(buf, off)
}

// DecodeScanRequest parses a scan-request payload. The returned window
// is always in [1, maxStreamWindow].
func DecodeScanRequest(payload []byte) (req ScanRequest, window int, err error) {
	if req.Table, payload, err = readString(payload); err != nil {
		return req, 0, err
	}
	if req.Start, payload, err = readString(payload); err != nil {
		return req, 0, err
	}
	var v int64
	if v, payload, err = readVarint(payload); err != nil {
		return req, 0, err
	}
	req.Count = int(v)
	if req.AsOf, payload, err = readVarint(payload); err != nil {
		return req, 0, err
	}
	if v, payload, err = readVarint(payload); err != nil {
		return req, 0, err
	}
	req.Slot = int(v)
	var w uint64
	if w, payload, err = readUvarint(payload); err != nil {
		return req, 0, err
	}
	if w == 0 || w > maxStreamWindow {
		return req, 0, fmt.Errorf("kvwire: bad credit window %d", w)
	}
	if len(payload) != 0 {
		return req, 0, fmt.Errorf("kvwire: %d trailing bytes after scan request", len(payload))
	}
	req.Window = int(w)
	return req, int(w), nil
}

// appendScanChunk encodes one chunk frame straight from engine records
// (a scan producer needs no StreamRecord staging slice), stopping once
// the frame reaches streamChunkBytes: it returns how many of kvs —
// at least one — the frame carries. The record count is written as a
// two-byte uvarint whatever its value, so it can be patched once the
// cut is known; decoders accept the padded form.
func appendScanChunk(buf []byte, id uint64, mapVersion int64, kvs []kvstore.VersionedKV) ([]byte, int) {
	off := len(buf)
	buf = appendFrameHeader(buf, frameChunk, id)
	buf = binary.AppendVarint(buf, mapVersion)
	countAt := len(buf)
	buf = append(buf, 0, 0)
	n := 0
	for _, kv := range kvs {
		r := kv.Record
		buf = appendStreamRecord(buf, kv.Key, r.Version, r.CommitTS, r.Image(), r.Fields)
		n++
		if len(buf)-off >= streamChunkBytes {
			break
		}
	}
	buf[countAt], buf[countAt+1] = byte(n)|0x80, byte(n>>7)
	return finishFrame(buf, off), n
}

func appendStreamRecord(buf []byte, key string, version uint64, commitTS int64, image []byte, fields map[string][]byte) []byte {
	var flags byte
	if fields != nil {
		flags |= recFlagFields
	}
	buf = append(buf, flags)
	buf = appendBytes(buf, key)
	buf = binary.AppendUvarint(buf, version)
	buf = binary.AppendVarint(buf, commitTS)
	if flags&recFlagFields != 0 {
		buf = appendFieldSection(buf, image, fields)
	}
	return buf
}

// DecodeChunk parses a chunk payload, appending records to dst. Nothing
// decoded aliases payload (a reader that is done with its frame buffer
// hands it over instead: fieldDecoder.own).
func DecodeChunk(payload []byte, dst []StreamRecord) (mapVersion int64, recs []StreamRecord, err error) {
	return new(fieldDecoder).chunk(payload, dst)
}

func (d *fieldDecoder) chunk(payload []byte, dst []StreamRecord) (mapVersion int64, recs []StreamRecord, err error) {
	mapVersion, payload, err = readVarint(payload)
	if err != nil {
		return 0, dst, err
	}
	count, payload, err := readUvarint(payload)
	if err != nil {
		return 0, dst, err
	}
	if count > MaxChunkRecords {
		return 0, dst, fmt.Errorf("kvwire: chunk claims %d records (max %d)", count, MaxChunkRecords)
	}
	// Every record costs at least 4 bytes (flags, zero-length key,
	// version, commit ts); a larger claim is lying about the payload.
	if count > uint64(len(payload)/4)+1 {
		return 0, dst, errTruncated
	}
	recs = slices.Grow(dst, int(count))
	for i := uint64(0); i < count; i++ {
		var r StreamRecord
		r, payload, err = d.readStreamRecord(payload)
		if err != nil {
			return 0, dst, err
		}
		recs = append(recs, r)
	}
	if len(payload) != 0 {
		return 0, dst, fmt.Errorf("kvwire: %d trailing bytes after chunk", len(payload))
	}
	return mapVersion, recs, nil
}

func (d *fieldDecoder) readStreamRecord(b []byte) (StreamRecord, []byte, error) {
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
		if r.Fields, b, err = d.readFields(b); err != nil {
			return r, b, err
		}
	}
	return r, b, nil
}

// AppendStreamEnd encodes one stream-end frame. Status 200 with count
// is the producer's clean end (count: the records its chunks carried);
// status 0 is the consumer's cancel; anything else aborts the stream
// with msg.
func AppendStreamEnd(buf []byte, id uint64, status int, mapVersion int64, count uint64, msg string) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameStreamEnd, id)
	buf = binary.AppendUvarint(buf, uint64(status))
	buf = binary.AppendVarint(buf, mapVersion)
	buf = binary.AppendUvarint(buf, count)
	buf = append(buf, msg...)
	return finishFrame(buf, off)
}

// DecodeStreamEnd parses a stream-end payload.
func DecodeStreamEnd(payload []byte) (status int, mapVersion int64, count uint64, msg string, err error) {
	st, payload, err := readUvarint(payload)
	if err != nil {
		return 0, 0, 0, "", err
	}
	if st > 999 {
		return 0, 0, 0, "", fmt.Errorf("kvwire: bad status %d", st)
	}
	if mapVersion, payload, err = readVarint(payload); err != nil {
		return 0, 0, 0, "", err
	}
	if count, payload, err = readUvarint(payload); err != nil {
		return 0, 0, 0, "", err
	}
	return int(st), mapVersion, count, string(payload), nil
}

// AppendCredit encodes one credit frame granting n chunks.
func AppendCredit(buf []byte, id uint64, n uint64) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameCredit, id)
	buf = binary.AppendUvarint(buf, n)
	return finishFrame(buf, off)
}

// DecodeCredit parses a credit payload. Grants of zero or beyond the
// window bound are protocol errors — a peer lying about credits gets
// its connection closed, not a giant buffer.
func DecodeCredit(payload []byte) (uint64, error) {
	n, payload, err := readUvarint(payload)
	if err != nil {
		return 0, err
	}
	if n == 0 || n > maxStreamWindow {
		return 0, fmt.Errorf("kvwire: bad credit grant %d", n)
	}
	if len(payload) != 0 {
		return 0, fmt.Errorf("kvwire: %d trailing bytes after credit", len(payload))
	}
	return n, nil
}
