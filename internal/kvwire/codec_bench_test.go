package kvwire

import (
	"context"
	"fmt"
	"testing"

	"ycsbt/internal/kvstore"
)

// Micro-cells for the field-section codec, beside the code they time
// (`make bench-quick` runs them; EXPERIMENTS.md "Encode once" has the
// parent's numbers). They decode the way a client connection's read
// loop does — one decoder for the connection's lifetime, page payloads
// handed over and checked, their records decoded through one stream's
// name memo — and encode the way the server's scan handler does.

// readLoopDec is a connection's response decoder.
var readLoopDec fieldDecoder

// storedRecords returns n engine-stored records of fields × size bytes.
func storedRecords(tb testing.TB, n, fields, size int) []kvstore.VersionedKV {
	tb.Helper()
	s := kvstore.OpenMemoryShards(8)
	tb.Cleanup(func() { s.Close() })
	rec := make(map[string][]byte, fields)
	for f := 0; f < fields; f++ {
		rec[fmt.Sprintf("field%d", f)] = make([]byte, size)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Put("usertable", fmt.Sprintf("user%08d", i), rec); err != nil {
			tb.Fatal(err)
		}
	}
	kvs, err := s.Scan("usertable", "", n)
	if err != nil || len(kvs) != n {
		tb.Fatalf("scan = %d records, %v", len(kvs), err)
	}
	return kvs
}

// responsePayload is what a server answers one get of a stored record.
func responsePayload(tb testing.TB, fields, size int) []byte {
	s := kvstore.OpenMemory()
	tb.Cleanup(func() { s.Close() })
	rec := make(map[string][]byte, fields)
	for f := 0; f < fields; f++ {
		rec[fmt.Sprintf("field%d", f)] = make([]byte, size)
	}
	if _, err := s.Put("usertable", "user1", rec); err != nil {
		tb.Fatal(err)
	}
	res := NewCore(s, nil, 0).ExecBatch(context.Background(), []Op{{Kind: KindGet, Table: "usertable", Key: "user1"}})
	if res[0].Status != 200 {
		tb.Fatalf("get = %+v", res[0])
	}
	return AppendResponse(nil, 1, res)[frameHeaderLen:]
}

func benchDecodeResponse(b *testing.B, fields, size int) {
	payload := responsePayload(b, fields, size)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readLoopDec.response(payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The YCSB record (ten 100-byte fields) and the CEW one (one balance).
func BenchmarkDecodeResponse1x10x100(b *testing.B) { benchDecodeResponse(b, 10, 100) }
func BenchmarkDecodeResponse1x1x8(b *testing.B)    { benchDecodeResponse(b, 1, 8) }

// BenchmarkDecodePage100x10x100 decodes a page and then the map of
// each record it keeps: /check is the read loop's share (no record
// taken), /all builds every record's map as a conv taking them all does.
func BenchmarkDecodePage100x10x100(b *testing.B) {
	buf, n := encodePage(nil, 1, storedRecords(b, 100, 10, 100), 0, "")
	if n != 100 {
		b.Fatalf("page took %d records", n)
	}
	payload := buf[frameHeaderLen:]
	for _, all := range []bool{false, true} {
		name := "check"
		if all {
			name = "all"
		}
		b.Run(name, func(b *testing.B) {
			var names []string
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				p, err := decodePage(payload)
				if err != nil {
					b.Fatal(err)
				}
				for j := range p.recs {
					if all {
						p.recs[j].names = &names
						p.recs[j].FieldMap()
					}
				}
			}
		})
	}
}

func BenchmarkEncodePage100(b *testing.B) {
	kvs := storedRecords(b, 100, 10, 100)
	buf, _ := encodePage(nil, 1, kvs, 0, "")
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = encodePage(buf[:0], 1, kvs, 0, "")
	}
}
