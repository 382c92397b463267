package httpkv

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/properties"
)

// TestBatchResponseEncodePooled pins the server-side win of the
// encoder pool: writing a 16-item NDJSON response reuses the pooled
// bufio.Writer + json.Encoder, so the per-request allocation count is
// a small constant — not "one writer, one encoder, one buffer growth"
// per request as the unpooled path paid.
func TestBatchResponseEncodePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	results := make([]wireBatchResult, 16)
	for i := range results {
		results[i] = wireBatchResult{Status: 200, ETag: "42"}
	}
	encode := func() {
		be := getEncoder(io.Discard)
		for _, r := range results {
			be.enc.Encode(r)
		}
		be.flushAndPut()
	}
	// encoding/json allocates once per Encode call regardless of the
	// writer, so the pooled floor is one alloc per item; the bound
	// leaves a little headroom but fails if per-request machinery
	// (writer, encoder, buffer growth) creeps back in.
	encode() // warm the pool
	if per := testing.AllocsPerRun(200, encode); per > float64(len(results))+4 {
		t.Errorf("pooled 16-item response encode = %.1f allocs, want ≤ %d", per, len(results)+4)
	}
}

// BenchmarkBatchPost measures one client ExecBatch round trip (16 ops)
// end to end — the pooled request-body buffer, ops slice, and response
// encoder all sit on this path; allocs/op is the number to watch.
func BenchmarkBatchPost(b *testing.B) {
	store := kvstore.OpenMemory()
	defer store.Close()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	if err := c.Init(properties.New()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ops := make([]db.BatchOp, 16)
	for i := range ops {
		key := fmt.Sprintf("k%02d", i)
		if _, err := store.Put("t", key, map[string][]byte{"f": []byte("v")}); err != nil {
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
