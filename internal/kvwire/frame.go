package kvwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// The framed binary protocol. A connection opens with a 4-byte magic
// ("KVW4") from the client; after the server echoes it, both sides
// exchange length-prefixed frames:
//
//	u32 LE payload length | u8 frame type | u64 LE request id | payload
//
// Request ids are chosen by the client and echoed verbatim. The server
// answers a connection's frames one at a time, in the order they came,
// and the client sends one request per connection at a time and checks
// the echoed id. Frame types:
//
//	1 request  — uvarint deadline_ms, uvarint op count, ops
//	2 response — uvarint result count, results
//	3 error    — uvarint status, uvarint retry-after secs, msg bytes
//
// and the scan pair, 4 scan-request and 5 page (scan.go). Every frame
// the client sends is answered by exactly one frame.
//
// Ops and results use uvarint lengths and values, varint (zigzag) for
// signed values, and single flags bytes for optional payload
// sections — the encoding equivalent of omitempty. Strings ride as
// raw bytes; there is no text anywhere on the hot path. A record's
// fields ride as one length-prefixed kvstore field section — the bytes
// the engine keeps as the record's image and logs in its WAL — so a
// server emits a stored record, and a client takes one in, with a
// single copy (see appendFieldSection, fieldDecoder).
//
// An error frame answers a request that failed as a whole (admission
// shed 429, empty batch 400, a scan page the server could not serve) —
// per-item failures are ordinary results
// with non-2xx statuses. A peer that cannot parse a frame at all must
// close the connection: framing is the only resync point.

// Magic opens every connection, both directions. The trailing digit is
// the protocol version: 4 reads at the head only (the scan request lost
// its as-of varint, and the op and result flags their as-of bits), so
// an older peer fails the handshake instead of misreading frames.
const Magic = "KVW4"

// Frame types.
const (
	frameRequest  = 1
	frameResponse = 2
	frameError    = 3
)

// MaxFramePayload bounds one frame. Larger length prefixes are a
// protocol error: the reader refuses them before allocating, so a
// hostile or corrupt peer cannot make the server reserve gigabytes.
const MaxFramePayload = 16 << 20

// MaxOpsPerFrame bounds one request frame's ops independently of its
// payload bytes.
const MaxOpsPerFrame = 4096

// maxFieldsPerOp bounds the per-record field map claimed by a frame.
const maxFieldsPerOp = 1 << 16

// Op flags. Any other bit is refused: bit 2 carried a snapshot
// timestamp in version 3, and skipping it would read the timestamp as
// the next section.
const (
	opFlagExpect       = 1 << 0 // exact-version conditional follows
	opFlagMustNotExist = 1 << 1 // create-only conditional
	opFlagFields       = 1 << 3 // field map follows
	opFlags            = opFlagExpect | opFlagMustNotExist | opFlagFields
)

// Result flags. Any other bit is refused, bit 3 (version 3's as-of
// echo) included.
const (
	resFlagVersion = 1 << 0
	resFlagFields  = 1 << 1
	resFlagErr     = 1 << 2
	resFlagMoved   = 1 << 4
	resFlags       = resFlagVersion | resFlagFields | resFlagErr | resFlagMoved
)

// ErrFrameTooLarge reports a length prefix over MaxFramePayload.
var ErrFrameTooLarge = errors.New("kvwire: frame exceeds size limit")

// errTruncated reports a payload that ended mid-structure.
var errTruncated = errors.New("kvwire: truncated payload")

// errTooManyFields reports a record claiming over maxFieldsPerOp fields.
var errTooManyFields = fmt.Errorf("kvwire: record claims more than %d fields", maxFieldsPerOp)

const frameHeaderLen = 4 + 1 + 8

// appendFrameHeader reserves and fills the frame header; the caller
// appends the payload and then calls finishFrame to patch the length.
func appendFrameHeader(buf []byte, typ byte, id uint64) []byte {
	buf = append(buf, 0, 0, 0, 0, typ)
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return buf
}

// finishFrame patches the length prefix of the frame starting at off.
func finishFrame(buf []byte, off int) []byte {
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(buf)-off-frameHeaderLen))
	return buf
}

// AppendRequest encodes one request frame carrying ops.
func AppendRequest(buf []byte, id uint64, deadlineMs uint64, ops []Op) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameRequest, id)
	buf = binary.AppendUvarint(buf, deadlineMs)
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for i := range ops {
		buf = appendOp(buf, &ops[i])
	}
	return finishFrame(buf, off)
}

func appendOp(buf []byte, op *Op) []byte {
	buf = append(buf, byte(op.Kind))
	var flags byte
	switch {
	case op.Expect == 0: // kvstore.MustNotExist
		flags |= opFlagMustNotExist
	case op.Expect != ^uint64(0): // not kvstore.AnyVersion
		flags |= opFlagExpect
	}
	if op.Fields != nil {
		flags |= opFlagFields
	}
	buf = append(buf, flags)
	buf = appendBytes(buf, op.Table)
	buf = appendBytes(buf, op.Key)
	if flags&opFlagExpect != 0 {
		buf = binary.AppendUvarint(buf, op.Expect)
	}
	if flags&opFlagFields != 0 {
		buf = appendFieldSection(buf, nil, op.Fields)
	}
	return buf
}

// appendFieldSection encodes one record's fields as a length-prefixed
// field section: the record's image when it has one — a single copy —
// and the map otherwise, behind a length written as a four-byte uvarint
// so it can be patched once the map has been ranged (decoders accept the
// padded form, and no frame holds a section that needs more bits).
func appendFieldSection(buf, image []byte, fields map[string][]byte) []byte {
	if image != nil {
		return append(binary.AppendUvarint(buf, uint64(len(image))), image...)
	}
	at := len(buf)
	buf = kvstore.AppendFields(append(buf, 0, 0, 0, 0), fields)
	n := len(buf) - at - 4
	buf[at], buf[at+1], buf[at+2], buf[at+3] = byte(n)|0x80, byte(n>>7)|0x80, byte(n>>14)|0x80, byte(n>>21)&0x7f
	return buf
}

// AppendResponse encodes one response frame carrying results.
func AppendResponse(buf []byte, id uint64, res []Result) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameResponse, id)
	buf = binary.AppendUvarint(buf, uint64(len(res)))
	for i := range res {
		buf = appendResult(buf, &res[i])
	}
	return finishFrame(buf, off)
}

func appendResult(buf []byte, r *Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Status))
	var flags byte
	if r.HasVersion {
		flags |= resFlagVersion
	}
	var image []byte
	if r.rec != nil {
		image = r.rec.Image()
	}
	if r.Fields != nil || image != nil {
		flags |= resFlagFields
	}
	if r.Err != "" {
		flags |= resFlagErr
	}
	if r.Owner != "" || r.MapVersion != 0 {
		flags |= resFlagMoved
	}
	buf = append(buf, flags)
	if flags&resFlagVersion != 0 {
		buf = binary.AppendUvarint(buf, r.Version)
	}
	if flags&resFlagFields != 0 {
		buf = appendFieldSection(buf, image, r.Fields)
	}
	if flags&resFlagErr != 0 {
		buf = appendBytes(buf, r.Err)
	}
	if flags&resFlagMoved != 0 {
		buf = appendBytes(buf, r.Owner)
		buf = binary.AppendVarint(buf, r.MapVersion)
	}
	return buf
}

// AppendError encodes one error frame: a whole-request failure.
func AppendError(buf []byte, id uint64, status int, retryAfterSecs uint64, msg string) []byte {
	off := len(buf)
	buf = appendFrameHeader(buf, frameError, id)
	buf = binary.AppendUvarint(buf, uint64(status))
	buf = binary.AppendUvarint(buf, retryAfterSecs)
	buf = append(buf, msg...)
	return finishFrame(buf, off)
}

func appendBytes(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// ReadFrame reads one frame header + payload into payload (reused when
// capacity allows) and returns the frame type, request id and payload
// bytes. io.EOF with no bytes read means a clean close.
func ReadFrame(r io.Reader, payload []byte) (typ byte, id uint64, out []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, payload, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFramePayload {
		return 0, 0, payload, ErrFrameTooLarge
	}
	typ = hdr[4]
	id = binary.LittleEndian.Uint64(hdr[5:])
	if cap(payload) < int(n) {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, payload, err
	}
	return typ, id, payload, nil
}

// DecodeRequest parses a request payload, appending the ops to dst
// (pass dst[:0] of a pooled slice to avoid allocation). Nothing decoded
// aliases payload.
func DecodeRequest(payload []byte, dst []Op) (deadlineMs uint64, ops []Op, err error) {
	return new(fieldDecoder).request(payload, dst)
}

func (d *fieldDecoder) request(payload []byte, dst []Op) (deadlineMs uint64, ops []Op, err error) {
	deadlineMs, payload, err = readUvarint(payload)
	if err != nil {
		return 0, dst, err
	}
	count, payload, err := readUvarint(payload)
	if err != nil {
		return 0, dst, err
	}
	if count > MaxOpsPerFrame {
		return 0, dst, fmt.Errorf("kvwire: request claims %d ops (max %d)", count, MaxOpsPerFrame)
	}
	// Every op costs at least 4 bytes on the wire (kind, flags, two
	// zero lengths); a count beyond that is lying about the payload.
	if count > uint64(len(payload)/4)+1 {
		return 0, dst, errTruncated
	}
	ops = dst
	for i := uint64(0); i < count; i++ {
		var op Op
		op, payload, err = d.readOp(payload)
		if err != nil {
			return 0, dst, err
		}
		ops = append(ops, op)
	}
	if len(payload) != 0 {
		return 0, dst, fmt.Errorf("kvwire: %d trailing bytes after request", len(payload))
	}
	return deadlineMs, ops, nil
}

func (d *fieldDecoder) readOp(b []byte) (Op, []byte, error) {
	var op Op
	if len(b) < 2 {
		return op, b, errTruncated
	}
	kind, flags := Kind(b[0]), b[1]
	if kind == KindInvalid || kind >= kindMax {
		return op, b, fmt.Errorf("kvwire: bad op kind %d", kind)
	}
	if flags&^opFlags != 0 {
		return op, b, fmt.Errorf("kvwire: unknown op flags %#x", flags)
	}
	op.Kind = kind
	b = b[2:]
	var err error
	if op.Table, b, err = readString(b); err != nil {
		return op, b, err
	}
	if op.Key, b, err = readString(b); err != nil {
		return op, b, err
	}
	switch {
	case flags&opFlagExpect != 0:
		if op.Expect, b, err = readUvarint(b); err != nil {
			return op, b, err
		}
	case flags&opFlagMustNotExist != 0:
		op.Expect = 0 // kvstore.MustNotExist
	default:
		op.Expect = ^uint64(0) // kvstore.AnyVersion
	}
	if flags&opFlagFields != 0 {
		if op.Fields, b, err = d.readFields(b); err != nil {
			return op, b, err
		}
	}
	return op, b, nil
}

// DecodeResponse parses a response payload, appending results to dst.
// Nothing decoded aliases payload.
func DecodeResponse(payload []byte, dst []Result) ([]Result, error) {
	return new(fieldDecoder).response(payload, dst)
}

func (d *fieldDecoder) response(payload []byte, dst []Result) ([]Result, error) {
	count, payload, err := readUvarint(payload)
	if err != nil {
		return dst, err
	}
	if count > MaxOpsPerFrame {
		return dst, fmt.Errorf("kvwire: response claims %d results (max %d)", count, MaxOpsPerFrame)
	}
	if count > uint64(len(payload)/2)+1 {
		return dst, errTruncated
	}
	res := dst
	for i := uint64(0); i < count; i++ {
		var r Result
		r, payload, err = d.readResult(payload)
		if err != nil {
			return dst, err
		}
		res = append(res, r)
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("kvwire: %d trailing bytes after response", len(payload))
	}
	return res, nil
}

func (d *fieldDecoder) readResult(b []byte) (Result, []byte, error) {
	var r Result
	status, b, err := readUvarint(b)
	if err != nil {
		return r, b, err
	}
	if status > 999 {
		return r, b, fmt.Errorf("kvwire: bad status %d", status)
	}
	r.Status = int(status)
	if len(b) < 1 {
		return r, b, errTruncated
	}
	flags := b[0]
	if flags&^resFlags != 0 {
		return r, b, fmt.Errorf("kvwire: unknown result flags %#x", flags)
	}
	b = b[1:]
	if flags&resFlagVersion != 0 {
		r.HasVersion = true
		if r.Version, b, err = readUvarint(b); err != nil {
			return r, b, err
		}
	}
	if flags&resFlagFields != 0 {
		if r.Fields, b, err = d.readFields(b); err != nil {
			return r, b, err
		}
	}
	if flags&resFlagErr != 0 {
		if r.Err, b, err = readString(b); err != nil {
			return r, b, err
		}
	}
	if flags&resFlagMoved != 0 {
		if r.Owner, b, err = readString(b); err != nil {
			return r, b, err
		}
		if r.MapVersion, b, err = readVarint(b); err != nil {
			return r, b, err
		}
	}
	return r, b, nil
}

// DecodeError parses an error payload.
func DecodeError(payload []byte) (status int, retryAfterSecs uint64, msg string, err error) {
	st, payload, err := readUvarint(payload)
	if err != nil {
		return 0, 0, "", err
	}
	if st > 999 {
		return 0, 0, "", fmt.Errorf("kvwire: bad status %d", st)
	}
	retryAfterSecs, payload, err = readUvarint(payload)
	if err != nil {
		return 0, 0, "", err
	}
	return int(st), retryAfterSecs, string(payload), nil
}

// fieldDecoder carries what decoding one field section takes from the
// ones before it. A connection's read loop keeps one for its lifetime,
// so even single-record responses find their names in the memo.
type fieldDecoder struct {
	// names is the positional name memo (db.DecodeFields): records
	// of one table repeat the same sorted names, so after the first
	// record no name is allocated.
	names []string
}

// readFields decodes one length-prefixed field section, returning the
// map and the rest of b. The reader reuses its frame buffer, so the
// section is copied out in one move and the map's values point into
// the copy.
func (d *fieldDecoder) readFields(b []byte) (map[string][]byte, []byte, error) {
	sec, rest, err := sectionOf(b)
	if err != nil {
		return nil, b, err
	}
	fields, _, err := db.DecodeFields(bytes.Clone(sec), &d.names)
	if err != nil {
		return nil, b, err
	}
	return fields, rest, nil
}

// checkSection reads one length-prefixed field section and checks it
// (db.CheckFields) without decoding it, returning the section —
// aliasing b —, whether its names are in canonical order, and the rest
// of b.
func checkSection(b []byte) (sec []byte, canonical bool, rest []byte, err error) {
	if sec, rest, err = sectionOf(b); err != nil {
		return nil, false, b, err
	}
	if canonical, err = db.CheckFields(sec); err != nil {
		return nil, false, b, err
	}
	return sec, canonical, rest, nil
}

// sectionOf splits one length-prefixed field section off b, refusing a
// length past the end and a field count over maxFieldsPerOp.
func sectionOf(b []byte) (sec, rest []byte, err error) {
	size, b, err := readUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if size > uint64(len(b)) {
		return nil, b, errTruncated
	}
	sec, rest = b[:size:size], b[size:]
	if count, _ := binary.Uvarint(sec); count > maxFieldsPerOp {
		return nil, b, fmt.Errorf("%w: %d", errTooManyFields, count)
	}
	return sec, rest, nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", b, err
	}
	if n > uint64(len(b)) {
		return "", b, errTruncated
	}
	return string(b[:n]), b[n:], nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, errTruncated
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, b, errTruncated
	}
	return v, b[n:], nil
}
