package httpkv

import "testing"

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
