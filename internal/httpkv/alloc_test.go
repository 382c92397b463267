package httpkv

import (
	"context"
	"fmt"
	"io"
	"testing"

	"ycsbt/internal/db"
)

// TestRecordResponseEncodePooled pins the server-side win of the
// encoder pool: writing a record response reuses the pooled
// bufio.Writer + json.Encoder, so the per-response allocation count is
// a small constant — not "one writer, one encoder, one buffer growth"
// per response as the unpooled path paid.
func TestRecordResponseEncodePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	rec := wireRecord{Version: 42, Fields: map[string][]byte{"f": []byte("v")}}
	encode := func() {
		be := getEncoder(io.Discard)
		be.enc.Encode(rec)
		be.flushAndPut()
	}
	// encoding/json's own per-Encode allocations are the floor; the
	// bound leaves a little headroom but fails if per-response machinery
	// (writer, encoder, buffer growth) creeps back in.
	encode() // warm the pool
	if per := testing.AllocsPerRun(200, encode); per > 6 {
		t.Errorf("pooled record response encode = %.1f allocs, want ≤ 6", per)
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
