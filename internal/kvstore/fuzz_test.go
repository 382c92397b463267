package kvstore

import (
	"bytes"
	"maps"
	"strings"
	"testing"

	"ycsbt/internal/db"
)

// FuzzDecodeWALRecord checks the WAL decoder never panics and that
// anything it accepts re-encodes losslessly.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add(encodeWALRecord(walRecord{Op: walPutTS, Table: "t", Key: "k", Version: 3, CommitTS: 17,
		Image: canonicalOf(map[string][]byte{"a": []byte("1")})}))
	f.Add(encodeWALRecord(walRecord{Op: walDeleteTS, Table: "usertable", Key: "user99", Version: 2, CommitTS: 18}))
	f.Add([]byte{})
	f.Add([]byte{walPutTS})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(encodeWALRecord(walRecord{Op: walDrop, Table: "usertable", Key: "user42", CommitTS: 19}))
	f.Add(encodeWALRecord(walRecord{Op: walMark, Table: "usertable", Version: 7}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeWALRecord(data)
		if err != nil {
			return
		}
		// An accepted put's section comes back as a canonical image.
		if rec.Image != nil {
			if canon, err := db.CheckFields(rec.Image); err != nil || !canon {
				t.Fatalf("decoded image %q: canonical %v, %v", rec.Image, canon, err)
			}
		}
		// Round-trip property on accepted inputs.
		out, err2 := decodeWALRecord(encodeWALRecord(rec))
		if err2 != nil {
			t.Fatalf("re-decode failed: %v", err2)
		}
		if out.Op != rec.Op || out.Table != rec.Table || out.Key != rec.Key || out.Version != rec.Version || out.CommitTS != rec.CommitTS || !bytes.Equal(out.Image, rec.Image) {
			t.Fatalf("round trip mismatch: %+v vs %+v", out, rec)
		}
	})
}

// FuzzVersionChain drives one key's chain with arbitrary
// append/trim/query ops and checks the chain primitives (link,
// cutChainAt, AsOf) against a flat reference model of retained
// versions.
func FuzzVersionChain(f *testing.F) {
	f.Add([]byte("aaabbbccc"))
	f.Add([]byte{0, 1, 2, 0, 0, 1, 2, 2, 1, 0})
	f.Add([]byte{255, 254, 0, 1, 128, 64, 32})
	f.Fuzz(func(t *testing.T, script []byte) {
		var head *VersionedRecord
		var ref []int64 // retained commit timestamps, ascending
		ts := int64(0)
		for i := 0; i+1 < len(script); i += 2 {
			arg := int64(script[i+1])
			switch script[i] % 3 {
			case 0: // append a new version (ts strictly increases)
				ts += arg%7 + 1
				v := &VersionedRecord{Version: uint64(len(ref) + 1), CommitTS: ts,
					Fields: map[string][]byte{"v": {script[i+1]}}}
				v.link(head)
				head = v
				ref = append(ref, ts)
			case 1: // trim at an arbitrary cut
				if head == nil {
					continue
				}
				cut := arg * ts / 255
				cutChainAt(head, cut)
				// Reference: keep the newest ts ≤ cut and everything newer.
				keepFrom := 0
				for j := len(ref) - 1; j >= 0; j-- {
					if ref[j] <= cut {
						keepFrom = j
						break
					}
				}
				ref = ref[keepFrom:]
			case 2: // query at an arbitrary ts
				q := arg * (ts + 1) / 255
				got := head.AsOf(q)
				var want int64 = -1
				for j := len(ref) - 1; j >= 0; j-- {
					if ref[j] <= q {
						want = ref[j]
						break
					}
				}
				if want == -1 {
					if got != nil {
						t.Fatalf("AsOf(%d) = ts %d, want nil (ref %v)", q, got.CommitTS, ref)
					}
				} else if got == nil || got.CommitTS != want {
					t.Fatalf("AsOf(%d) = %v, want ts %d (ref %v)", q, got, want, ref)
				}
			}
			if head != nil && chainLength(head) != len(ref) {
				t.Fatalf("chain length %d, ref %d (%v)", chainLength(head), len(ref), ref)
			}
		}
	})
}

// FuzzBTreeOperations drives the tree with arbitrary op/key bytes and
// checks structural invariants throughout. Every seventh operation
// keeps the root and a copy of the reference; at the end each kept
// root must still read exactly what it held.
func FuzzBTreeOperations(f *testing.F) {
	f.Add([]byte("iaibicid ra rb da ia"))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252})
	// Every one of the 130 keys, then every other one deleted: splits
	// the root leaf, then merges its children back.
	var grow []byte
	for b := 0; b < 130; b++ {
		grow = append(grow, 0, byte(b))
	}
	for b := 0; b < 130; b += 2 {
		grow = append(grow, 1, byte(b))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, script []byte) {
		bt := newBTree()
		ref := map[string]uint64{}
		var kept []keptRoot
		for i := 0; i+1 < len(script); i += 2 {
			key := strings.Repeat(string(rune('a'+script[i+1]%26)), int(script[i+1]%5)+1)
			_, had := ref[key]
			switch script[i] % 3 {
			case 0:
				old := bt.put(key, rec(uint64(i)))
				if (old != nil) != had {
					t.Fatalf("put(%q) displaced=%v but ref says %v", key, old != nil, had)
				}
				ref[key] = uint64(i)
			case 1:
				removed := bt.delete(key)
				if removed != had {
					t.Fatalf("delete(%q) = %v but ref says %v", key, removed, had)
				}
				delete(ref, key)
			case 2:
				if got := bt.get(key) != nil; got != had {
					t.Fatalf("get(%q) = %v but ref says %v", key, got, had)
				}
			}
			if i%14 == 0 {
				kept = append(kept, keptRoot{bt.root, maps.Clone(ref)})
			}
		}
		if msg := bt.check(); msg != "" {
			t.Fatalf("invariant: %s", msg)
		}
		if bt.size != len(ref) {
			t.Fatalf("size %d, ref %d", bt.size, len(ref))
		}
		if msg := checkKept(kept); msg != "" {
			t.Fatal(msg)
		}
	})
}
