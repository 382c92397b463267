package httpkv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// Micro-cells for the record codec, beside the code they time, each
// against encoding/json on the same record: the pooled json.Encoder the
// server wrote GET bodies with, and json.Unmarshal, which decoded every
// record and PUT/PATCH body. Run with
//
//	go test -run xx -bench BenchmarkRecordCodec -benchmem ./internal/httpkv/

// ycsbRecord is YCSB's default record: ten 100-byte fields.
func ycsbRecord() *wireRecord {
	r := &wireRecord{Version: 7, CommitTS: 1_700_000_000_123, Fields: make(map[string][]byte, 10)}
	for f := 0; f < 10; f++ {
		r.Fields[fmt.Sprintf("field%d", f)] = bytes.Repeat([]byte{'a' + byte(f)}, 100)
	}
	return r
}

// patchBody is what workload A's update sends: one 100-byte field.
func patchBody() *wireRecord {
	return &wireRecord{Fields: map[string][]byte{"field3": bytes.Repeat([]byte{'x'}, 100)}}
}

var (
	benchBuf []byte
	benchRec wireRecord
)

func BenchmarkRecordCodec(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  *wireRecord
	}{{"record10x100", ycsbRecord()}, {"patch1", patchBody()}} {
		body := appendRecord(nil, c.rec)
		b.Run("encode/"+c.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			buf := make([]byte, 0, 2*len(body))
			for i := 0; i < b.N; i++ {
				buf = appendRecord(buf[:0], c.rec)
			}
			benchBuf = buf
		})
		b.Run("encode/"+c.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := enc.Encode(c.rec); err != nil {
					b.Fatal(err)
				}
			}
			benchBuf = buf.Bytes()
		})
		b.Run("decode/"+c.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				benchRec = wireRecord{}
				if err := decodeRecord(body, &benchRec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+c.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				benchRec = wireRecord{}
				if err := json.Unmarshal(body, &benchRec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
