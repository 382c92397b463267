package kvstore

import "testing"

// TestWALEncodeZeroAlloc pins the payoff of the append-style encoder
// and its buffer pool: serializing a WAL record into a buffer with
// enough capacity performs no allocations, so the hot write path's
// per-record encode cost is pure byte copying.
func TestWALEncodeZeroAlloc(t *testing.T) {
	rec := walRecord{
		Op:       walPutTS,
		Table:    "usertable",
		Key:      "user000000012345",
		Version:  42,
		CommitTS: 1 << 40,
		Fields: map[string][]byte{
			"field0": []byte("some-representative-payload-bytes"),
			"field1": []byte("another-representative-payload"),
		},
	}
	buf := make([]byte, 0, 1024)
	if per := testing.AllocsPerRun(1000, func() {
		buf = appendWALRecord(buf[:0], rec)
	}); per != 0 {
		t.Errorf("appendWALRecord = %.1f allocs/op, want 0", per)
	}

	// And the pooled round trip the wal's append path uses stays
	// allocation-free once the pool is warm.
	if per := testing.AllocsPerRun(1000, func() {
		bp := walBufPool.Get().(*[]byte)
		payload := appendWALRecord((*bp)[:0], rec)
		_ = payload
		*bp = payload[:0]
		walBufPool.Put(bp)
	}); per != 0 {
		t.Errorf("pooled WAL encode = %.1f allocs/op, want 0", per)
	}
}
