package httpkv

import (
	"context"
	"fmt"
	"testing"

	"ycsbt/internal/db"
)

// TestRecordCodecAllocs pins the record codec's cost on YCSB's default
// record (encoding/json: 21 allocations to encode it, 41 to decode):
// encoding into a buffer with room allocates nothing, and decoding
// allocates the fields map (four allocations at ten entries), one slab
// for the values and one string for the names.
func TestRecordCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	rec := ycsbRecord()
	body := appendRecord(nil, rec)
	buf := make([]byte, 0, len(body))
	if per := testing.AllocsPerRun(200, func() { buf = appendRecord(buf[:0], rec) }); per > 0 {
		t.Errorf("record encode = %.1f allocs, want 0", per)
	}
	var got wireRecord
	if per := testing.AllocsPerRun(200, func() {
		got = wireRecord{}
		if err := decodeRecord(body, &got); err != nil {
			t.Fatal(err)
		}
	}); per > 6 {
		t.Errorf("record decode = %.1f allocs, want ≤ 6", per)
	}
}

// BenchmarkExecBatch measures one client ExecBatch round trip (16 ops
// in one request frame) end to end; allocs/op is the number to watch.
func BenchmarkExecBatch(b *testing.B) {
	tn := startNode(b, nil)
	c := tn.client(b, WireModeAuto)
	ctx := context.Background()
	ops := make([]db.BatchOp, 16)
	for i := range ops {
		key := fmt.Sprintf("k%02d", i)
		if _, err := tn.store.Put("t", key, map[string][]byte{"f": []byte("v")}); err != nil {
			b.Fatal(err)
		}
		if i%2 == 0 {
			ops[i] = db.BatchOp{Op: db.OpRead, Table: "t", Key: key}
		} else {
			ops[i] = db.BatchOp{Op: db.OpUpdate, Table: "t", Key: key, Values: db.Record{"f": []byte("w")}}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range c.ExecBatch(ctx, ops) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
