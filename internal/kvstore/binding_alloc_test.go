package kvstore

import (
	"context"
	"fmt"
	"testing"
)

// TestBindingScanAllocs pins the embedded binding's scan: with nil
// fields a record is handed on as a view of its stored image
// (VersionedRecord.View), so a scan allocates nothing per record and
// nothing per field. A 100-record scan of ten-field records costs what a
// 100-record scan of one-field records does, and a handful in all (5 on
// four shards: the engine's merge and result, the binding's result). It
// was 405 with a map per record, 205 at one field a record.
func TestBindingScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	ctx := context.Background()
	perScan := func(nfields int) float64 {
		b := NewBinding(OpenMemoryShards(4))
		defer b.Cleanup()
		rec := make(map[string][]byte, nfields)
		for f := 0; f < nfields; f++ {
			rec[fmt.Sprintf("field%d", f)] = make([]byte, 100)
		}
		keys := make([]string, 1000)
		for i := range keys {
			keys[i] = fmt.Sprintf("user%04d", i)
			if err := b.Insert(ctx, "t", keys[i], rec); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		return testing.AllocsPerRun(200, func() {
			i = (i + 7) % 900
			kvs, err := b.Scan(ctx, "t", keys[i], 100, nil)
			if err != nil || len(kvs) != 100 || kvs[0].Fields.Len() != nfields {
				t.Fatalf("scan = %d records, %v", len(kvs), err)
			}
		})
	}
	one, ten := perScan(1), perScan(10)
	if ten != one {
		t.Errorf("100-record scan = %.1f allocs with ten fields a record, %.1f with one: want the same", ten, one)
	}
	if ten > 8 {
		t.Errorf("100-record scan = %.1f allocs, want ≤ 8 (nothing per record)", ten)
	}
}
