package kvstore

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func rec(v uint64) *VersionedRecord {
	return &VersionedRecord{Version: v, Fields: map[string][]byte{"f": []byte("x")}}
}

func TestBTreeBasic(t *testing.T) {
	bt := newBTree()
	if bt.get("a") != nil {
		t.Error("get on empty tree")
	}
	if bt.put("a", rec(1)) != nil {
		t.Error("put of new key should return nil old record")
	}
	if old := bt.put("a", rec(2)); old == nil || old.Version != 1 {
		t.Errorf("overwrite should return displaced record, got %+v", old)
	}
	if got := bt.get("a"); got == nil || got.Version != 2 {
		t.Errorf("get = %+v", got)
	}
	if bt.size != 1 {
		t.Errorf("size = %d", bt.size)
	}
	if !bt.delete("a") {
		t.Error("delete should report removal")
	}
	if bt.delete("a") {
		t.Error("double delete should report absence")
	}
	if bt.size != 0 {
		t.Errorf("size = %d", bt.size)
	}
}

func TestBTreeManyKeysSortedAscend(t *testing.T) {
	bt := newBTree()
	const n = 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		bt.put(fmt.Sprintf("key%08d", i), rec(uint64(i)))
	}
	if bt.size != n {
		t.Fatalf("size = %d", bt.size)
	}
	if msg := bt.check(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
	var keys []string
	bt.ascend("", func(k string, _ *VersionedRecord) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != n {
		t.Fatalf("ascend visited %d keys", len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Error("ascend not in sorted order")
	}
}

func TestBTreeAscendFromMidpoint(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.put(fmt.Sprintf("k%03d", i), rec(uint64(i)))
	}
	var keys []string
	bt.ascend("k050", func(k string, _ *VersionedRecord) bool {
		keys = append(keys, k)
		return len(keys) < 5
	})
	want := []string{"k050", "k051", "k052", "k053", "k054"}
	if len(keys) != len(want) {
		t.Fatalf("got %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("got %v, want %v", keys, want)
		}
	}
	// Start between keys.
	keys = nil
	bt.ascend("k0505", func(k string, _ *VersionedRecord) bool {
		keys = append(keys, k)
		return len(keys) < 2
	})
	if len(keys) != 2 || keys[0] != "k051" {
		t.Fatalf("between-keys ascend = %v", keys)
	}
}

func TestBTreeDeleteRebalancing(t *testing.T) {
	// Insert enough to force multiple levels, then delete in several
	// orders to exercise all CLRS cases.
	orders := []string{"forward", "reverse", "random"}
	for _, order := range orders {
		t.Run(order, func(t *testing.T) {
			bt := newBTree()
			const n = 5000
			for i := 0; i < n; i++ {
				bt.put(fmt.Sprintf("k%06d", i), rec(uint64(i)))
			}
			idx := make([]int, n)
			for i := range idx {
				idx[i] = i
			}
			switch order {
			case "reverse":
				for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
					idx[i], idx[j] = idx[j], idx[i]
				}
			case "random":
				rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			}
			ref := make(map[string]uint64, n)
			for i := 0; i < n; i++ {
				ref[fmt.Sprintf("k%06d", i)] = uint64(i)
			}
			var kept []keptRoot
			for step, i := range idx {
				key := fmt.Sprintf("k%06d", i)
				if !bt.delete(key) {
					t.Fatalf("delete %s failed", key)
				}
				delete(ref, key)
				if step%500 == 0 {
					if msg := bt.check(); msg != "" {
						t.Fatalf("invariant after %d deletes: %s", step+1, msg)
					}
					kept = append(kept, keptRoot{bt.root, maps.Clone(ref)})
				}
			}
			if msg := checkKept(kept); msg != "" {
				t.Fatal(msg)
			}
			if bt.size != 0 {
				t.Fatalf("size = %d after deleting all", bt.size)
			}
			if msg := bt.check(); msg != "" {
				t.Fatalf("final invariant: %s", msg)
			}
		})
	}
}

// keptRoot is a root a test saw installed, with the version of every
// key it held then.
type keptRoot struct {
	root *node
	want map[string]uint64
}

// checkKept re-reads every kept root with ascend and get and returns
// the first difference from what it held when it was kept, or "". A
// write that wrote into a node an older root still reaches shows up
// here.
func checkKept(kept []keptRoot) string {
	for n, k := range kept {
		snap := &treeSnapshot{root: k.root}
		var msg string
		seen, prev := 0, ""
		snap.ascend("", func(key string, v *VersionedRecord) bool {
			switch want, ok := k.want[key]; {
			case !ok:
				msg = fmt.Sprintf("kept root %d: ascend meets %q, which it did not hold", n, key)
			case v.Version != want:
				msg = fmt.Sprintf("kept root %d: ascend reads %q at version %d, want %d", n, key, v.Version, want)
			case seen > 0 && key <= prev:
				msg = fmt.Sprintf("kept root %d: ascend goes from %q to %q", n, prev, key)
			}
			seen, prev = seen+1, key
			return msg == ""
		})
		if msg != "" {
			return msg
		}
		if seen != len(k.want) {
			return fmt.Sprintf("kept root %d: ascend visits %d keys, want %d", n, seen, len(k.want))
		}
		for key, want := range k.want {
			if got := snap.get(key); got == nil || got.Version != want {
				return fmt.Sprintf("kept root %d: get(%q) = %v, want version %d", n, key, got, want)
			}
		}
	}
	return ""
}

// TestBTreeVsMapQuick drives random operation sequences against the
// tree and a reference map, checking equivalence and structural
// invariants. Sequences run to 2 000 operations, so the tree splits,
// borrows and merges. Every 37th operation keeps the root and a copy
// of the map; at the end each kept root must still read exactly what
// it held.
func TestBTreeVsMapQuick(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16
	}
	f := func(ops []op) bool {
		bt := newBTree()
		ref := make(map[string]uint64)
		var kept []keptRoot
		ver := uint64(0)
		for n, o := range ops {
			key := fmt.Sprintf("k%04d", o.Key%500)
			switch o.Kind % 3 {
			case 0: // put
				ver++
				old := bt.put(key, rec(ver))
				if _, existed := ref[key]; (old != nil) != existed {
					return false
				}
				ref[key] = ver
			case 1: // delete
				removed := bt.delete(key)
				_, existed := ref[key]
				if removed != existed {
					return false
				}
				delete(ref, key)
			case 2: // get
				got := bt.get(key)
				want, existed := ref[key]
				if existed != (got != nil) {
					return false
				}
				if got != nil && got.Version != want {
					return false
				}
			}
			if n%37 == 0 {
				kept = append(kept, keptRoot{bt.root, maps.Clone(ref)})
			}
		}
		if bt.size != len(ref) {
			return false
		}
		if bt.check() != "" {
			return false
		}
		if msg := checkKept(kept); msg != "" {
			t.Log(msg)
			return false
		}
		// Full ascend must reproduce the reference exactly, in order.
		var keys []string
		bt.ascend("", func(k string, v *VersionedRecord) bool {
			if want, ok := ref[k]; !ok || v.Version != want {
				keys = nil
				return false
			}
			keys = append(keys, k)
			return true
		})
		return len(keys) == len(ref) && sort.StringsAreSorted(keys)
	}
	// quick's own slices stay under 50 elements, too few to split a node.
	values := func(args []reflect.Value, r *rand.Rand) {
		ops := make([]op, r.Intn(2000))
		for i := range ops {
			ops[i] = op{uint8(r.Intn(256)), uint16(r.Intn(1 << 16))}
		}
		args[0] = reflect.ValueOf(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: values}); err != nil {
		t.Error(err)
	}
}

func TestCompareKeys(t *testing.T) {
	if compareKeys("a", "b") >= 0 || compareKeys("b", "a") <= 0 || compareKeys("a", "a") != 0 {
		t.Error("compareKeys is not lexicographic")
	}
}

func BenchmarkBTreePut(b *testing.B) {
	bt := newBTree()
	keys := benchKeys(100000)
	v := rec(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.put(keys[i%len(keys)], v)
	}
}

// benchKeys returns n keys in ascending order, built before a
// benchmark's timer starts so that it times the tree, not the format.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%010d", i)
	}
	return keys
}

// overwriteTree returns a tree of n keys inserted in shuffled order, as
// a hashed load inserts them, and its keys.
func overwriteTree(n int) (*btree, []string) {
	bt := newBTree()
	keys := make([]string, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[i] = fmt.Sprintf("user%010d", j)
		bt.put(keys[i], rec(1))
	}
	return bt, keys
}

// BenchmarkBTreeOverwrite overwrites every key of a 1 250-key tree in
// turn, the size of a cew_embedded partition's user table.
func BenchmarkBTreeOverwrite(b *testing.B) {
	bt, keys := overwriteTree(1250)
	v := rec(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.put(keys[i%len(keys)], v)
	}
}

// TestBTreeWriteAllocs pins what a write allocates. Overwriting each
// key of a 1 250-key tree in turn (a cew_embedded partition's user
// table: a root over about 30 leaves) copies vals where the key is and
// children above it: 4 objects at a leaf and 2 at the root, which
// testing.AllocsPerRun rounds down from 3.96 to 3, and 777 B a write,
// where copying each node's keys and values together took 4 (4.96)
// and 2 157 B. Inserting a key into an empty table and deleting it
// again, as a commit does with its _tsr record, takes 4 objects.
func TestBTreeWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	bt, keys := overwriteTree(1250)
	v := rec(2)
	i := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objs := testing.AllocsPerRun(len(keys), func() {
		bt.put(keys[i%len(keys)], v)
		i++
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more to warm up.
	bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(i)
	if objs > 3 || bytes > 800 {
		t.Errorf("an overwrite allocates %v objects and %d B, want at most 3 and 800", objs, bytes)
	}
	empty := newBTree()
	if objs := testing.AllocsPerRun(200, func() {
		empty.put("tsr", v)
		empty.delete("tsr")
	}); objs > 4 {
		t.Errorf("an insert and delete in an empty table allocate %v objects, want at most 4", objs)
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	bt := newBTree()
	keys := benchKeys(100000)
	for i, k := range keys {
		bt.put(k, rec(uint64(i)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt.get(keys[i%len(keys)])
	}
}
