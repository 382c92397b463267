package percolator

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// Wire encodings for the reserved fields. All integers little-endian;
// strings and values uvarint-length-prefixed.

// lockRecord is the decoded _perc:lock field: which transaction holds
// the record, and where its primary lives.
type lockRecord struct {
	PrimaryTable string
	PrimaryKey   string
	StartTS      int64
	WallNano     int64 // wall-clock time of the prewrite, for the TTL
}

func encodeLock(lk lockRecord) []byte {
	buf := make([]byte, 0, 32+len(lk.PrimaryTable)+len(lk.PrimaryKey))
	buf = appendChunk(buf, []byte(lk.PrimaryTable))
	buf = appendChunk(buf, []byte(lk.PrimaryKey))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lk.StartTS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lk.WallNano))
	return buf
}

func decodeLock(buf []byte) (lockRecord, error) {
	var lk lockRecord
	tbl, rest, err := readChunk(buf)
	if err != nil {
		return lk, errors.New("percolator: corrupt lock (table)")
	}
	key, rest, err := readChunk(rest)
	if err != nil {
		return lk, errors.New("percolator: corrupt lock (key)")
	}
	if len(rest) != 16 {
		return lk, errors.New("percolator: corrupt lock (timestamps)")
	}
	lk.PrimaryTable = string(tbl)
	lk.PrimaryKey = string(key)
	lk.StartTS = int64(binary.LittleEndian.Uint64(rest[:8]))
	lk.WallNano = int64(binary.LittleEndian.Uint64(rest[8:]))
	return lk, nil
}

// Pending / committed version payload:
//
//	kind(1: 0=put 1=delete) startTS(8) field section
//
// where the field section is kvstore's (kvstore.AppendFields). The
// start_ts inside the payload is what lets crash recovery match a
// committed version on the primary back to the lock that references
// it (Percolator's write-column start_ts pointer).

func encodePending(del bool, startTS int64, fields map[string][]byte) []byte {
	kind := byte(0)
	if del {
		kind = 1
	}
	buf := binary.LittleEndian.AppendUint64(append(make([]byte, 0, 64), kind), uint64(startTS))
	return kvstore.AppendFields(buf, fields)
}

// decodePending reverses encodePending. The values share one copy of
// buf, never buf itself: buf is a stored record's field.
func decodePending(buf []byte) (del bool, fields map[string][]byte, err error) {
	if len(buf) < 9 {
		return false, nil, errors.New("percolator: corrupt pending payload")
	}
	if fields, _, err = db.DecodeFields(bytes.Clone(buf[9:]), nil); err != nil {
		return false, nil, fmt.Errorf("percolator: pending payload: %w", err)
	}
	return buf[0] == 1, fields, nil
}

// pendingStartTS extracts just the start_ts from a pending/committed
// payload.
func pendingStartTS(buf []byte) (int64, bool) {
	if len(buf) < 9 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(buf[1:9])), true
}

func appendChunk(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func readChunk(buf []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < l {
		return nil, nil, errors.New("percolator: truncated chunk")
	}
	return buf[n : n+int(l)], buf[n+int(l):], nil
}
