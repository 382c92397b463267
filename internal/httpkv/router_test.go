package httpkv

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

func newTestRouter(t *testing.T, nodes []*testNode, reg *obs.Registry) *Router {
	t.Helper()
	r, err := NewRouter([]string{nodes[0].URL}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Cleanup() })
	return r
}

// The router sends every key to its owner: operations succeed across
// the whole fleet and each record lands on exactly the node the map
// assigns it.
func TestRouterRoutesPerKey(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()
	m := r.Map()

	const n = 60
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%05d", i)
		if err := r.Insert(ctx, "t", k, rec("v-"+k)); err != nil {
			t.Fatalf("insert %s: %v", k, err)
		}
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%05d", i)
		got, err := r.Read(ctx, "t", k, nil)
		if err != nil || string(got["f"]) != "v-"+k {
			t.Fatalf("read %s: %v %v", k, got, err)
		}
		owner, _ := m.Owner(k)
		for _, tn := range nodes {
			_, err := tn.store.Get("t", k)
			if (tn.URL == owner) != (err == nil) {
				t.Fatalf("key %s: presence on %s = %v, owner is %s", k, tn.URL, err == nil, owner)
			}
		}
	}
	if err := r.Update(ctx, "t", "user00000", rec("v2")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(ctx, "t", "user00001"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(ctx, "t", "user00001", nil); err == nil {
		t.Error("deleted key still readable")
	}
}

// Fleet-wide scans merge per-node pages into one global key order.
func TestRouterScanMerges(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()

	var want []string
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("user%05d", i)
		if err := r.Insert(ctx, "t", k, rec("v")); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	kvs, err := r.Scan(ctx, "t", "", 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, kv := range kvs {
		got = append(got, kv.Key)
	}
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("scan order mismatch:\n got %v\nwant %v", got, want)
	}
	// Bounded scans honor count across the merge.
	kvs, err = r.Scan(ctx, "t", "user00010", 7, nil)
	if err != nil || len(kvs) != 7 || kvs[0].Key != "user00010" {
		t.Errorf("bounded scan: %d keys from %q, err %v", len(kvs), kvs[0].Key, err)
	}
}

// A scan fanned out while the fleet straddles a map install must not
// return a silently merged result: each node echoes the map version
// it scanned under, and disagreement makes the router retry and, if
// the fleet never converges, fail loudly instead of dropping the
// migrating slot's records.
func TestRouterScanDetectsVersionSkew(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()
	a, b := nodes[0], nodes[1]

	const n = 20
	for i := 0; i < n; i++ {
		if err := r.Insert(ctx, "t", fmt.Sprintf("user%05d", i), rec("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Half-install a successor: a is at v+1, b still at v.
	next := r.Map().Clone()
	next.Version++
	if _, err := a.state.Install(next); err != nil {
		t.Fatal(err)
	}
	r.retries = 2
	r.backoff = time.Millisecond
	if _, err := r.Scan(ctx, "t", "", -1, nil); err == nil {
		t.Fatal("scan across a version-skewed fleet succeeded silently")
	} else if !strings.Contains(err.Error(), "straddling") {
		t.Fatalf("skewed scan error = %v, want version-skew report", err)
	}

	// Once the fleet converges the same scan covers every key again.
	if _, err := b.state.Install(next); err != nil {
		t.Fatal(err)
	}
	kvs, err := r.Scan(ctx, "t", "", -1, nil)
	if err != nil {
		t.Fatalf("scan after convergence: %v", err)
	}
	if len(kvs) != n {
		t.Errorf("converged scan returned %d keys, want %d", len(kvs), n)
	}
}

// Batches fan out per owner and merge positionally: result i always
// answers op i, whatever node served it.
func TestRouterBatchFanOut(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()

	var ops []db.BatchOp
	for i := 0; i < 30; i++ {
		ops = append(ops, db.BatchOp{Op: db.OpInsert, Table: "t", Key: fmt.Sprintf("user%05d", i), Values: rec(fmt.Sprintf("v%d", i))})
	}
	for _, res := range r.ExecBatch(ctx, ops) {
		if res.Err != nil {
			t.Fatalf("batch insert: %v", res.Err)
		}
	}
	ops = ops[:0]
	for i := 0; i < 30; i++ {
		ops = append(ops, db.BatchOp{Op: db.OpRead, Table: "t", Key: fmt.Sprintf("user%05d", i)})
	}
	for i, res := range r.ExecBatch(ctx, ops) {
		if res.Err != nil || string(res.Record["f"]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("batch read %d: %v %v", i, res.Record, res.Err)
		}
	}
}

// When the fleet installs a newer map behind the router's back, the
// 410 + hint makes it refetch and retry — the operation succeeds and
// the refetch counter moves.
func TestRouterRefetchesOnMoved(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	reg := obs.NewRegistry()
	r := newTestRouter(t, nodes, reg)
	ctx := context.Background()
	m := r.Map()
	a, b := nodes[0], nodes[1]

	slot := m.SlotsOf(a.URL)[0]
	next, err := m.WithSlotMoved(slot, b.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		if _, err := tn.state.Install(next); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Map().Version; got != m.Version {
		t.Fatalf("router map already at v%d before any traffic", got)
	}

	key := keyOwnedBy(t, next, b.URL, "mv")
	if owner, _ := m.Owner(key); owner != a.URL {
		// Want a key that moved: owned by a under v1, by b under v2.
		for i := 0; ; i++ {
			key = fmt.Sprintf("mv2-%05d", i)
			if _, s := m.Owner(key); s == slot {
				break
			}
		}
	}
	before := reg.Counter("cluster_map_refetch_total").Value()
	if err := r.Insert(ctx, "t", key, rec("v")); err != nil {
		t.Fatalf("insert across stale map: %v", err)
	}
	if got := r.Map().Version; got != next.Version {
		t.Errorf("router map version after retry = %d, want %d", got, next.Version)
	}
	if after := reg.Counter("cluster_map_refetch_total").Value(); after <= before {
		t.Errorf("refetch counter did not move: %d -> %d", before, after)
	}
	if moved := reg.Counter("httpkv_client_moved_total").Value(); moved == 0 {
		t.Error("moved counter did not move")
	}
	// The record landed on the new owner.
	if _, err := b.store.Get("t", key); err != nil {
		t.Errorf("record not on new owner: %v", err)
	}
}

// The moved-key storm (run under -race): eight writers batch through
// the router while a slot live-migrates underneath them. No operation
// may be lost or duplicated, and the map refetches must stay bounded
// instead of stampeding once per moved item.
func TestRouterMovedStorm(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	reg := obs.NewRegistry()
	r := newTestRouter(t, nodes, reg)
	ctx := context.Background()
	m := r.Map()
	a, b := nodes[0], nodes[1]

	const (
		threads = 8
		rounds  = 30
		perOp   = 4 // keys per thread per batch
	)
	// Seed every key; counters start at 0.
	for th := 0; th < threads; th++ {
		var ops []db.BatchOp
		for j := 0; j < perOp; j++ {
			ops = append(ops, db.BatchOp{
				Op: db.OpInsert, Table: "t",
				Key: fmt.Sprintf("storm-%d-%d", th, j), Values: rec("0"),
			})
		}
		for _, res := range r.ExecBatch(ctx, ops) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	acked := make([][]int, threads) // per-thread count of acked updates per key
	for th := 0; th < threads; th++ {
		acked[th] = make([]int, perOp)
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for round := 1; round <= rounds; round++ {
				var ops []db.BatchOp
				for j := 0; j < perOp; j++ {
					ops = append(ops, db.BatchOp{
						Op: db.OpUpdate, Table: "t",
						Key:    fmt.Sprintf("storm-%d-%d", th, j),
						Values: rec(fmt.Sprintf("%d", round)),
					})
				}
				for j, res := range r.ExecBatch(ctx, ops) {
					if res.Err != nil {
						errs <- fmt.Errorf("thread %d round %d op %d: %w", th, round, j, res.Err)
						return
					}
					acked[th][j]++
				}
			}
		}(th)
	}

	// Two live migrations mid-storm: a → b, then another slot b → a.
	slotAB := m.SlotsOf(a.URL)[0]
	m2, err := MigrateSlot(ctx, m, slotAB, b.URL)
	if err != nil {
		t.Fatalf("storm migration 1: %v", err)
	}
	slotBA := m2.SlotsOf(b.URL)[0]
	if _, err := MigrateSlot(ctx, m2, slotBA, a.URL); err != nil {
		t.Fatalf("storm migration 2: %v", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// No lost ops: every thread acked all its rounds, and the final
	// image is the last acked write (updates are ordered per thread,
	// so a lost-but-acked write would leave an older value behind).
	for th := 0; th < threads; th++ {
		for j := 0; j < perOp; j++ {
			if acked[th][j] != rounds {
				t.Errorf("thread %d key %d: %d acks, want %d", th, j, acked[th][j], rounds)
			}
			k := fmt.Sprintf("storm-%d-%d", th, j)
			got, err := r.Read(ctx, "t", k, nil)
			if err != nil {
				t.Fatalf("final read %s: %v", k, err)
			}
			if string(got["f"]) != fmt.Sprintf("%d", rounds) {
				t.Errorf("%s final value = %s, want %d (lost update)", k, got["f"], rounds)
			}
			// Exactly rounds+1 record versions (seed + one per round):
			// a duplicated (replayed) update would inflate this.
			owner, _ := r.Map().Owner(k)
			for _, tn := range nodes {
				if tn.URL != owner {
					continue
				}
				recv, err := tn.store.Get("t", k)
				if err != nil {
					t.Fatalf("owner read %s: %v", k, err)
				}
				if recv.Version != uint64(rounds+1) {
					t.Errorf("%s version = %d, want %d (duplicated or lost op)", k, recv.Version, rounds+1)
				}
			}
		}
	}

	// Bounded refetches: a handful per migration, not one per moved op.
	refetches := reg.Counter("cluster_map_refetch_total").Value()
	const maxRefetches = 2 * (threads + 2) // generous: both migrations, every thread may refetch once each
	if refetches > maxRefetches {
		t.Errorf("refetch storm: %d map refetches (bound %d)", refetches, maxRefetches)
	}
	t.Logf("storm: %d refetches, %d moved answers",
		refetches, reg.Counter("httpkv_client_moved_total").Value())
}

// The cluster binding rejects as_of: commit timestamps are per-store
// logical clocks with no cross-node meaning.
func TestRouterRejectsAsOf(t *testing.T) {
	nodes := startTestCluster(t, 1, 4)
	r := &Router{}
	p := properties.New()
	p.Set("cluster.nodes", nodes[0].URL)
	p.Set("as_of", "123")
	err := r.Init(p)
	if !errors.Is(err, db.ErrNotSupported) {
		t.Fatalf("as_of init: got %v, want ErrNotSupported", err)
	}
}

// A routed scan merges per-node paged scans: every node's page counter
// (kvwire_scan_chunks_total) moves, no node serves an HTTP request for
// it, and the merged order and values match the key space.
func TestRouterScanStreamsAcrossFleet(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()

	n := 400
	ops := make([]db.BatchOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, db.BatchOp{
			Op: db.OpInsert, Table: "t", Key: fmt.Sprintf("user%05d", i),
			Values: rec(fmt.Sprintf("v%05d", i)),
		})
	}
	for _, res := range r.ExecBatch(ctx, ops) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	httpBefore := make([]int64, len(nodes))
	for i, tn := range nodes {
		httpBefore[i] = tn.httpReqs()
	}

	got, err := r.Scan(ctx, "t", "user00050", 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkScan(t, got, 50, 300)
	for i, tn := range nodes {
		if c := tn.counter("kvwire_scan_chunks_total"); c == 0 {
			t.Errorf("node %d served no scan pages; its slice of the merge did not ride frames", i)
		}
		if n := tn.httpReqs() - httpBefore[i]; n != 0 {
			t.Errorf("node %d answered %d HTTP requests during a routed scan", i, n)
		}
	}
}

// A node the router cannot mount fails the operations routed to it —
// by name, and without being remembered: once the node advertises its
// listener the next operation mounts it. Nothing is downgraded to HTTP
// in between.
func TestRouterMountFailureIsNotCached(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	r := newTestRouter(t, nodes, nil)
	ctx := context.Background()
	b := nodes[1]
	key := keyOwnedBy(t, r.Map(), b.URL, "user")

	// Unmount b and boot it again without its frame listener, as if a
	// refetched map had named a node that is still booting.
	r.mu.Lock()
	r.nodes[b.URL].wire.Close()
	delete(r.nodes, b.URL)
	r.mu.Unlock()
	b.restart(t, false)

	before := b.httpReqs()
	var nw *NoWireError
	for i := 0; i < 2; i++ {
		if err := r.Insert(ctx, "t", key, rec("v")); !errors.As(err, &nw) || nw.Node != b.URL {
			t.Fatalf("insert %d routed to an unmountable node: %v, want NoWireError naming it", i, err)
		}
	}
	if probes := b.httpReqs() - before; probes != 2 {
		t.Errorf("%d probes for 2 failed operations, want one each", probes)
	}
	b.restart(t, true)
	if err := r.Insert(ctx, "t", key, rec("v")); err != nil {
		t.Fatalf("insert after the node came up: %v", err)
	}
	if got, err := b.store.Get("t", key); err != nil || string(got.Field("f")) != "v" {
		t.Fatalf("record on the node: %v, %v", got, err)
	}
}

// A node's client carries the router's control calls: after the node
// restarts, the router refetches its map over a redialed connection,
// not a failed one.
func TestRouterRefetchesAfterNodeRestart(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	r := newTestRouter(t, nodes, nil)
	m := r.Map()
	ca := r.client(a.URL)
	dials := ca.Dials()

	a.restart(t, true)
	// Only a, which the refetch polls first, learns the successor: a
	// failed fetch there would fall through to b's old map.
	next, err := m.WithSlotMoved(m.SlotsOf(a.URL)[0], b.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.state.Install(next); err != nil {
		t.Fatal(err)
	}
	r.refetchMap(context.Background(), a.URL)
	if got := r.Map().Version; got != next.Version {
		t.Fatalf("router at map v%d after the refetch, want v%d", got, next.Version)
	}
	if got := ca.Dials(); got != dials+1 {
		t.Errorf("a's client dialed %d connections, want %d: one more after the restart", got, dials+1)
	}
}
