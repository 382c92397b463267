package httpkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvwire"
)

// A cluster node must answer operations on keys it does not own with
// 410 plus routing hints, and serve its own keys normally.
func TestClusterSingleOpMoved(t *testing.T) {
	bothTransports(t, testClusterSingleOpMoved)
}

func testClusterSingleOpMoved(t *testing.T, mode string) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := a.client(t, mode)

	theirs := keyOwnedBy(t, m, b.URL, "user")
	var me *cluster.MovedError
	if err := ca.Insert(ctx, "t", theirs, rec("x")); !errors.As(err, &me) {
		t.Fatalf("insert of foreign key: got %v, want MovedError", err)
	}
	if me.Owner != b.URL || me.MapVersion != m.Version {
		t.Errorf("moved hints: owner=%q v=%d, want owner=%q v=%d", me.Owner, me.MapVersion, b.URL, m.Version)
	}
	me = nil
	if _, err := ca.Read(ctx, "t", theirs, nil); !errors.As(err, &me) {
		t.Errorf("read of foreign key: got %v, want MovedError", err)
	} else if me.Owner != b.URL || me.MapVersion != m.Version {
		t.Errorf("read's moved hints: owner=%q v=%d, want owner=%q v=%d", me.Owner, me.MapVersion, b.URL, m.Version)
	}

	mine := keyOwnedBy(t, m, a.URL, "user")
	if err := ca.Insert(ctx, "t", mine, rec("y")); err != nil {
		t.Fatalf("insert of owned key: %v", err)
	}
	got, err := ca.Read(ctx, "t", mine, nil)
	if err != nil || string(got["f"]) != "y" {
		t.Errorf("read of owned key: %v %v", got, err)
	}
}

// A request frame gates per item: foreign items answer 410 results
// with routing hints while owned items in the same frame succeed.
func TestClusterBatchPartialMoved(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := a.client(t, WireModeAuto)

	mine := keyOwnedBy(t, m, a.URL, "user")
	theirs := keyOwnedBy(t, m, b.URL, "user")
	res := ca.ExecBatch(ctx, []db.BatchOp{
		{Op: db.OpInsert, Table: "t", Key: mine, Values: rec("v1")},
		{Op: db.OpInsert, Table: "t", Key: theirs, Values: rec("v2")},
		{Op: db.OpRead, Table: "t", Key: mine},
	})
	if res[0].Err != nil {
		t.Errorf("owned insert in batch: %v", res[0].Err)
	}
	var me *cluster.MovedError
	if !errors.As(res[1].Err, &me) {
		t.Fatalf("foreign insert in batch: got %v, want MovedError", res[1].Err)
	}
	if me.Owner != b.URL {
		t.Errorf("batch moved owner hint = %q, want %q", me.Owner, b.URL)
	}
	if res[2].Err != nil || string(res[2].Record["f"]) != "v1" {
		t.Errorf("owned read in batch: %v %v", res[2].Record, res[2].Err)
	}
}

// A frozen slot drains writes (410, no owner hint — the slot has not
// moved yet) while reads keep serving; thaw restores writes.
func TestClusterFreezeWindow(t *testing.T) {
	bothTransports(t, testClusterFreezeWindow)
}

func testClusterFreezeWindow(t *testing.T, mode string) {
	nodes := startTestCluster(t, 2, 8)
	a := nodes[0]
	m := a.state.Map()
	ctx := context.Background()
	ca := a.client(t, mode)

	key := keyOwnedBy(t, m, a.URL, "user")
	if err := ca.Insert(ctx, "t", key, rec("v1")); err != nil {
		t.Fatal(err)
	}
	_, slot := m.Owner(key)

	resp, err := a.hc.Post(fmt.Sprintf("%s/v1/shardmap/freeze?slot=%d", a.URL, slot), "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("freeze: %v %v", resp.Status, err)
	}
	resp.Body.Close()

	var me *cluster.MovedError
	if err := ca.Update(ctx, "t", key, rec("v2")); !errors.As(err, &me) {
		t.Fatalf("write to frozen slot: got %v, want MovedError", err)
	}
	if me.Owner != "" {
		t.Errorf("frozen slot advertised owner %q, want none (back off, not redirect)", me.Owner)
	}
	if got, err := ca.Read(ctx, "t", key, nil); err != nil || string(got["f"]) != "v1" {
		t.Errorf("read during freeze: %v %v", got, err)
	}

	resp, err = a.hc.Post(fmt.Sprintf("%s/v1/shardmap/freeze?slot=%d&thaw=1", a.URL, slot), "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("thaw: %v %v", resp.Status, err)
	}
	resp.Body.Close()
	if err := ca.Update(ctx, "t", key, rec("v2")); err != nil {
		t.Errorf("write after thaw: %v", err)
	}
}

// GET serves the current map; PUT installs strictly newer maps and
// answers 409 with the node's version header otherwise. After an
// install the node starts 410ing the slots it lost.
func TestClusterShardMapRoutes(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	hc := a.hc
	ac := a.client(t, WireModeOff)

	got, err := ac.fetchShardMap(ctx)
	if err != nil {
		t.Fatalf("GET shardmap: %v", err)
	}
	if got.Version != m.Version || len(got.Nodes) != 2 {
		t.Errorf("fetched map v%d nodes=%d, want v%d nodes=2", got.Version, len(got.Nodes), m.Version)
	}

	// Re-PUT of the current version is stale → 409 + version header.
	if err := ac.putShardMap(ctx, m, 0); err != nil {
		t.Errorf("idempotent re-PUT of current map should be accepted as converged: %v", err)
	}
	doc, _ := m.Encode()
	req, _ := http.NewRequest(http.MethodPut, a.URL+"/v1/shardmap", bytes.NewReader(doc))
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale PUT status = %d, want 409", resp.StatusCode)
	}
	if v, _ := strconv.ParseInt(resp.Header.Get(cluster.HeaderMapVersion), 10, 64); v != m.Version {
		t.Errorf("stale PUT version header = %d, want %d", v, m.Version)
	}

	// A v+1 map moving one of a's slots to b installs and takes effect.
	slots := m.SlotsOf(a.URL)
	next, err := m.WithSlotMoved(slots[0], b.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.putShardMap(ctx, next, 0); err != nil {
		t.Fatalf("PUT v2: %v", err)
	}
	key := keyOwnedBy(t, next, b.URL, "moved")
	if owner, sl := m.Owner(key); owner != a.URL || sl != slots[0] {
		// keyOwnedBy walked next; re-derive one in the moved slot.
		for i := 0; ; i++ {
			key = fmt.Sprintf("mv%05d", i)
			if _, s2 := m.Owner(key); s2 == slots[0] {
				break
			}
		}
	}
	ca := a.client(t, WireModeAuto)
	var me *cluster.MovedError
	if err := ca.Insert(ctx, "t", key, rec("x")); !errors.As(err, &me) {
		t.Fatalf("write to moved-away slot: got %v, want MovedError", err)
	}
	if me.MapVersion != next.Version || me.Owner != b.URL {
		t.Errorf("moved hints after install: owner=%q v=%d, want %q v=%d", me.Owner, me.MapVersion, b.URL, next.Version)
	}
}

// PUT /v1/shardmap with the CAS header only lands on the exact
// predecessor version; the unconditional path keeps treating an
// equal-or-newer node as converged.
func TestClusterShardMapPutCAS(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	hc := a.hc
	ac := a.client(t, WireModeOff)
	next, err := m.WithSlotMoved(m.SlotsOf(a.URL)[0], b.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong predecessor → strict failure, map untouched.
	if err := ac.putShardMap(ctx, next, m.Version+7); err == nil {
		t.Fatal("CAS install against the wrong predecessor succeeded")
	}
	if got := a.state.Map().Version; got != m.Version {
		t.Fatalf("failed CAS moved the map to v%d", got)
	}
	// Right predecessor → lands.
	if err := ac.putShardMap(ctx, next, m.Version); err != nil {
		t.Fatalf("CAS install against the right predecessor: %v", err)
	}
	// The predecessor is consumed: a rival CAS of the same expected
	// version must fail even though the node already carries v+1 — a
	// divergent v+1 is not "already converged".
	if err := ac.putShardMap(ctx, next, m.Version); err == nil {
		t.Error("CAS re-install of a consumed predecessor succeeded")
	}
	// The unconditional path still reads equal-or-newer as converged.
	if err := ac.putShardMap(ctx, next, 0); err != nil {
		t.Errorf("unconditional re-install of the current map: %v", err)
	}
	// A malformed CAS header is a 400, not an install.
	doc, _ := next.Encode()
	req, _ := http.NewRequest(http.MethodPut, a.URL+"/v1/shardmap", bytes.NewReader(doc))
	req.Header.Set(cluster.HeaderMapCAS, "bogus")
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed CAS header status = %d, want 400", resp.StatusCode)
	}
}

// Scans in cluster mode filter to owned slots — on both transports —
// and, over frames, to one exact slot on request, paging the engine far
// enough that filtered rows never truncate the result.
func TestClusterScanFiltered(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a := nodes[0]
	m := a.state.Map()
	ctx := context.Background()
	ca := a.client(t, WireModeAuto)

	// Land 40 keys on node a (writes of foreign keys would 410), and the
	// same 40 plus 40 foreign ones in its engine, as a migration leaves
	// behind.
	var mine []string
	for i := 0; len(mine) < 40; i++ {
		k := fmt.Sprintf("user%05d", i)
		if owner, _ := m.Owner(k); owner == a.URL {
			if err := ca.Insert(ctx, "t", k, rec("v")); err != nil {
				t.Fatal(err)
			}
			mine = append(mine, k)
		} else if _, err := a.store.Put("t", k, rec("foreign")); err != nil {
			t.Fatal(err)
		}
	}
	for _, mode := range []string{WireModeOff, WireModeAuto} {
		kvs, err := a.client(t, mode).Scan(ctx, "t", "", -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != len(mine) {
			t.Fatalf("wire=%s: owned scan returned %d keys, want %d", mode, len(kvs), len(mine))
		}
	}

	_, slot := m.Owner(mine[0])
	s, err := ca.wire.Scan(ctx, &kvwire.ScanRequest{Table: "t", Count: -1, Slot: slot})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := 0
	for s.Next() {
		got++
		if sl := m.SlotOf(s.Record().Key); sl != slot {
			t.Errorf("slot scan leaked key %q from slot %d", s.Record().Key, sl)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, k := range mine {
		if m.SlotOf(k) == slot {
			want++
		}
	}
	if got != want || want == 0 {
		t.Fatalf("slot scan returned %d keys, want %d (>0)", got, want)
	}
}
