package httpkv

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// scanFleet is a 3-node cluster and a router over it.
type scanFleet struct {
	nodes []*testNode
	r     *Router
}

func newScanFleet(t *testing.T, build func(addrs []string) (*cluster.Map, error)) *scanFleet {
	t.Helper()
	f := &scanFleet{nodes: startTestClusterWithMap(t, 3, build)}
	f.r = newTestRouter(t, f.nodes, nil)
	return f
}

// counter sums one registry counter over the fleet.
func (f *scanFleet) counter(name string) int64 {
	var n int64
	for _, tn := range f.nodes {
		n += tn.counter(name)
	}
	return n
}

func fleetKey(i int) string { return fmt.Sprintf("user%05d", i) }

// loadRouted inserts keys [0, n) through the router: every node stores
// exactly the keys it owns.
func (f *scanFleet) loadRouted(t *testing.T, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fleetKey(i)
		if err := f.r.Insert(context.Background(), "t", keys[i], rec("v-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// loadEverywhere writes keys [0, n) into every node's engine, owned or
// not — the state a fleet is in after migrations, which leave the
// source's copy behind — so every scan has to filter its way through
// two foreign records for each one it may return.
func (f *scanFleet) loadEverywhere(t *testing.T, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fleetKey(i)
		for _, tn := range f.nodes {
			if _, err := tn.store.PutIfVersion("t", keys[i], rec("v-"+keys[i]), kvstore.AnyVersion); err != nil {
				t.Fatal(err)
			}
		}
	}
	return keys
}

// checkFleetScans compares Router.Scan against the sorted key list for
// every count × start of the matrix.
func checkFleetScans(t *testing.T, f *scanFleet, keys []string) {
	t.Helper()
	ctx := context.Background()
	starts := map[string]string{
		"first":       keys[0],
		"mid-range":   keys[len(keys)/2],
		"between":     keys[len(keys)/3] + "x",
		"last":        keys[len(keys)-1],
		"past-end":    keys[len(keys)-1] + "z",
		"before-all":  "",
		"skew-border": keys[min(499, len(keys)-1)],
	}
	for _, count := range []int{1, 2, 33, 100, 257, 1025, 5000} {
		for sname, start := range starts {
			lo := sort.SearchStrings(keys, start)
			want := keys[lo:min(len(keys), lo+count)]
			got, err := f.r.Scan(ctx, "t", start, count, nil)
			if err != nil {
				t.Fatalf("count=%d start=%s: %v", count, sname, err)
			}
			if len(got) != len(want) {
				t.Fatalf("count=%d start=%s: %d records, want %d", count, sname, len(got), len(want))
			}
			for i, kv := range got {
				if kv.Key != want[i] || string(kv.Fields.Map()["f"]) != "v-"+want[i] {
					t.Fatalf("count=%d start=%s: record %d = %s/%q, want %s", count, sname, i, kv.Key, kv.Fields.Map()["f"], want[i])
				}
			}
		}
	}
}

func uniformHash(addrs []string) (*cluster.Map, error) {
	return cluster.NewUniform(cluster.PlacementHash, 16, addrs, nil)
}

// The harness checks that a scan is ordered and no longer than asked;
// only an oracle can say it is complete. Every count × start against
// the sorted key list, over a real wire fleet.
func TestFleetScanCompleteness(t *testing.T) {
	t.Run("routed", func(t *testing.T) {
		f := newScanFleet(t, uniformHash)
		checkFleetScans(t, f, f.loadRouted(t, 1500))
	})
	// Every node holds every record: a node's first count-sized page is
	// two-thirds foreign, so it is complete only if the node keeps
	// paging until it has its count or runs off the table.
	t.Run("foreign-records", func(t *testing.T) {
		f := newScanFleet(t, uniformHash)
		checkFleetScans(t, f, f.loadEverywhere(t, 1500))
	})
	// Range placement with one node owning every slot of the first 500
	// keys: the other two must page through 500 records they may not
	// return before finding one they may, and the owner is drained by
	// the merge over and over while they idle.
	t.Run("skewed-ownership", func(t *testing.T) {
		f := newScanFleet(t, func(addrs []string) (*cluster.Map, error) {
			bounds := []string{fleetKey(100), fleetKey(200), fleetKey(300), fleetKey(400), fleetKey(500), fleetKey(800), fleetKey(1100)}
			m, err := cluster.NewUniform(cluster.PlacementRange, len(bounds)+1, addrs, bounds)
			if err != nil {
				return nil, err
			}
			copy(m.Assign, []int{0, 0, 0, 0, 0, 1, 2, 1})
			return m, m.Validate()
		})
		checkFleetScans(t, f, f.loadEverywhere(t, 1500))
	})
}

// A client-chosen count (maxscanlength, ?count=) must not size anything
// before the records exist: count = 1<<40 over a 300-record fleet
// returns the 300 records for well under a megabyte.
func TestFleetScanHugeCountAllocatesByResult(t *testing.T) {
	f := newScanFleet(t, uniformHash)
	keys := f.loadRouted(t, 300)
	ctx := context.Background()
	scan := func() []db.KV {
		got, err := f.r.Scan(ctx, "t", "", 1<<40, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	scan() // dial, warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := scan()
	runtime.ReadMemStats(&after)
	if len(got) != len(keys) || got[0].Key != keys[0] || got[len(got)-1].Key != keys[len(keys)-1] {
		t.Fatalf("scan returned %d records, want all %d", len(got), len(keys))
	}
	// Whole process: router, three servers and their engines.
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("count=1<<40 over %d records allocated %d bytes, want < 1 MiB", len(keys), n)
	}
}

// The regression guard for the scan diet that needs no benchmark: for
// 100-record scans on a 3-node fleet, a node reads at most 4 engine
// records per record it emits, and the fleet ships at most 2 records
// per record the router returns.
func TestFleetScanOverfetchBounds(t *testing.T) {
	// Range placement: twelve 250-key slots dealt round-robin, so a
	// 100-record scan starts on one node and two in five cross into the
	// next node's range.
	uniformRange := func(addrs []string) (*cluster.Map, error) {
		var bounds []string
		for s := 1; s < 12; s++ {
			bounds = append(bounds, fleetKey(s*250))
		}
		return cluster.NewUniform(cluster.PlacementRange, 12, addrs, bounds)
	}
	for _, load := range []string{"routed", "foreign-records", "range-placed"} {
		t.Run(load, func(t *testing.T) {
			var f *scanFleet
			var keys []string
			switch load {
			case "routed":
				f = newScanFleet(t, uniformHash)
				keys = f.loadRouted(t, 3000)
			case "foreign-records":
				f = newScanFleet(t, uniformHash)
				keys = f.loadEverywhere(t, 3000)
			case "range-placed":
				f = newScanFleet(t, uniformRange)
				keys = f.loadRouted(t, 3000)
			}
			ctx := context.Background()
			merged := 0
			for i := 0; i < 50; i++ {
				got, err := f.r.Scan(ctx, "t", keys[i*53], 100, nil)
				if err != nil {
					t.Fatal(err)
				}
				merged += len(got)
			}
			engine := f.counter("kvwire_scan_engine_records_total")
			wire := f.counter("kvwire_scan_records_total")
			t.Logf("%d engine records, %d shipped, %d merged", engine, wire, merged)
			if merged != 5000 {
				t.Fatalf("merged %d records, want 5000", merged)
			}
			if ratio := float64(engine) / float64(wire); ratio > 4 {
				t.Errorf("engine records / emitted records = %d/%d = %.2f, want <= 4", engine, wire, ratio)
			}
			if ratio := float64(wire) / float64(merged); ratio > 2 {
				t.Errorf("shipped records / merged records = %d/%d = %.2f, want <= 2", wire, merged, ratio)
			}
		})
	}
}

// What the router asks of each node follows the map's placement: a
// slot-share of count plus margin under hash, all of count from the
// start key's owner and a head from everyone else under range.
func TestNodeSharesFollowPlacement(t *testing.T) {
	addrs := []string{"a", "b", "c"}
	hash, err := uniformHash(addrs)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []string{fleetKey(100), fleetKey(200), fleetKey(300), fleetKey(400), fleetKey(500)}
	rng, err := cluster.NewUniform(cluster.PlacementRange, len(bounds)+1, addrs, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     *cluster.Map
		start string
		count int
		want  []int
	}{
		{"hash", hash, fleetKey(150), 96, []int{47, 39, 39}}, // 6, 5, 5 of 16 slots: 36+9+2, 30+7+2
		{"hash-one", hash, fleetKey(150), 1, []int{1, 1, 1}},
		{"hash-all", hash, fleetKey(150), -1, []int{-1, -1, -1}},
		{"range", rng, fleetKey(150), 96, []int{2, 96, 2}}, // slot 1 → node b
		{"range-later-slot", rng, fleetKey(450), 96, []int{2, 96, 2}},
		{"range-first", rng, "", 96, []int{96, 2, 2}},
		{"range-one", rng, fleetKey(250), 1, []int{1, 1, 1}},
		{"range-huge", rng, fleetKey(250), 1 << 62, []int{2, 2, 1 << 62}},
	} {
		got := nodeShares(tc.start, tc.count, tc.m)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: nodeShares(%q, %d) = %v, want %v", tc.name, tc.start, tc.count, got, tc.want)
		}
	}
}

// A node without a wire listener serves scans through the same paging
// loop, so it exports the same two counters.
func TestHTTPOnlyServerExportsScanCounters(t *testing.T) {
	tn := startHTTPNode(t, openTestStore(t), NodeOptions{})
	c := NewClient(tn.URL, nil)
	loadFixtureKeys(t, c, 100)
	got, err := c.Scan(context.Background(), "t", "user00010", 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 10, 60)
	if n := tn.counter("kvwire_scan_records_total"); n != 60 {
		t.Errorf("kvwire_scan_records_total = %d, want 60", n)
	}
	if n := tn.counter("kvwire_scan_engine_records_total"); n < 60 || n > 240 {
		t.Errorf("kvwire_scan_engine_records_total = %d, want 60..240", n)
	}
}

// A merge that holds count while its nodes still have pages to give
// stops asking: afterwards no goroutine is left on any node and none
// has leaked in the router, scan after scan.
func TestFleetScanEarlyStopLeavesNothingRunning(t *testing.T) {
	f := newScanFleet(t, uniformHash)
	keys := f.loadRouted(t, 6000)
	ctx := context.Background()
	scan := func() {
		// ~1700-1900 records asked of each node, two pages apiece: the
		// merge finishes with every node's scan unfinished.
		got, err := f.r.Scan(ctx, "t", keys[100], 3000, nil)
		if err != nil || len(got) != 3000 {
			t.Fatalf("scan: %d records, err %v", len(got), err)
		}
	}
	scan() // dial every node: pooled connections and their read loops stay
	settled := func() int {
		n := runtime.NumGoroutine()
		for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				return n
			}
			n = m
		}
		return n
	}
	baseline := settled()
	pages0 := f.counter("kvwire_scan_chunks_total")
	for i := 0; i < 20; i++ {
		scan()
	}
	if n := settled(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after 20 early-stopped scans, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	// More than one page per node scan, or the merge never stopped a
	// scan with pages left and this test proved nothing.
	if pages := f.counter("kvwire_scan_chunks_total") - pages0; pages <= 60 {
		t.Fatalf("only %d pages for 20 fleet scans: node scans were not multi-page", pages)
	}
}

// loadYCSB inserts n of YCSB's default records (ten 100-byte fields)
// through the router and returns their keys in order.
func (f *scanFleet) loadYCSB(t *testing.T, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fleetKey(i)
		if err := f.r.Insert(context.Background(), "t", keys[i], ycsbRecord().Fields); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestRouterScanAllocs is the ladder's router_scan100 cell as a pin: a
// router scan of 100 ten-field records over three nodes makes at most 2
// allocations per record, counting every allocation in the process —
// router, wire and the servers. A record is handed on as a view of its
// page section (db.Fields), so no scan builds a map per record; the
// cell read 605 per scan while each record became one.
func TestRouterScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	f := newScanFleet(t, uniformHash)
	keys := f.loadYCSB(t, 1000)
	ctx := context.Background()
	i := 0
	scan := func() {
		i = (i + 7) % (len(keys) - 100)
		kvs, err := f.r.Scan(ctx, "t", keys[i], 100, nil)
		if err != nil || len(kvs) != 100 || kvs[0].Fields.Len() != 10 {
			t.Fatalf("scan from %s = %d records, %v", keys[i], len(kvs), err)
		}
	}
	scan() // dial, warm the pools
	if per := testing.AllocsPerRun(50, scan) / 100; per > 2 {
		t.Errorf("router scan = %.2f allocs per record, want ≤ 2", per)
	}
}

// TestRouterScanResultsCrossGoroutines: a scan's records are views that
// share nothing the stream or the router goes on to edit, so two
// goroutines may read one scan's results while the same router runs
// more scans. Under -race it fails if a view reaches mutable state — a
// stream's name memo, a reused frame buffer.
func TestRouterScanResultsCrossGoroutines(t *testing.T) {
	f := newScanFleet(t, uniformHash)
	keys := f.loadYCSB(t, 400)
	ctx := context.Background()
	kvs, err := f.r.Scan(ctx, "t", keys[0], 200, nil)
	if err != nil || len(kvs) != 200 {
		t.Fatalf("scan = %d records, %v", len(kvs), err)
	}
	want := ycsbRecord().Fields
	var wg sync.WaitGroup
	read := func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			for _, kv := range kvs {
				n := 0
				kv.Fields.Range(func(name string, val []byte) bool {
					if !bytes.Equal(val, want[name]) {
						t.Errorf("%s: field %q = %q", kv.Key, name, val)
					}
					n++
					return true
				})
				if v, ok := kv.Fields.Get("field3"); n != len(want) || !ok || !bytes.Equal(v, want["field3"]) {
					t.Errorf("%s: %d fields, field3 = %q, %v", kv.Key, n, v, ok)
				}
				if m := kv.Fields.Map(); len(m) != len(want) {
					t.Errorf("%s: Map has %d fields", kv.Key, len(m))
				}
			}
		}
	}
	wg.Add(2)
	go read()
	go read()
	for i := 0; i < 10; i++ {
		more, err := f.r.Scan(ctx, "t", keys[i*20], 100, nil)
		if err != nil || len(more) != 100 {
			t.Errorf("concurrent scan = %d records, %v", len(more), err)
		}
	}
	wg.Wait()
}
