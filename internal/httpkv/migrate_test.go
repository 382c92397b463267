package httpkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// MigrateSlot end to end, in process: the moved slot's records appear
// on the destination with versions and commit timestamps preserved,
// the source starts answering 410 with the new owner, and every node
// converges on the successor map.
func TestMigrateSlotMovesData(t *testing.T) {
	nodes := startTestCluster(t, 3, 12)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := NewClient(a.URL, a.srv.Client())

	// Load keys onto a, remembering those in the slot we'll move.
	slot := m.SlotsOf(a.URL)[0]
	var inSlot, elsewhere []string
	for i := 0; len(inSlot) < 20 || len(elsewhere) < 20; i++ {
		k := fmt.Sprintf("user%05d", i)
		owner, s := m.Owner(k)
		if owner != a.URL {
			continue
		}
		if err := ca.Insert(ctx, "usertable", k, rec("v-"+k)); err != nil {
			t.Fatal(err)
		}
		if s == slot {
			inSlot = append(inSlot, k)
		} else {
			elsewhere = append(elsewhere, k)
		}
	}
	// A second write gives moved records a version history worth
	// preserving (version 2, later commit ts).
	if err := ca.Update(ctx, "usertable", inSlot[0], rec("v2")); err != nil {
		t.Fatal(err)
	}
	wantRec, err := a.store.Get("usertable", inSlot[0])
	if err != nil {
		t.Fatal(err)
	}

	next, err := MigrateSlot(ctx, a.srv.Client(), m, slot, b.URL)
	if err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if next.Version != m.Version+1 || next.OwnerOfSlot(slot) != b.URL {
		t.Fatalf("successor map: v%d owner=%s", next.Version, next.OwnerOfSlot(slot))
	}
	if n := b.counter("kvwire_ingest_records_total"); n != int64(len(inSlot)) {
		t.Errorf("destination ingested %d records over frames, want the slot's %d", n, len(inSlot))
	}
	for _, tn := range nodes {
		if got := tn.state.Map().Version; got != next.Version {
			t.Errorf("node %s map version = %d, want %d", tn.URL, got, next.Version)
		}
	}

	// Destination serves the moved keys, history intact.
	cb := NewClient(b.URL, b.srv.Client())
	for _, k := range inSlot {
		if _, err := cb.Read(ctx, "usertable", k, nil); err != nil {
			t.Fatalf("read %s on destination: %v", k, err)
		}
	}
	got, err := b.store.Get("usertable", inSlot[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != wantRec.Version || got.CommitTS != wantRec.CommitTS {
		t.Errorf("moved record: version=%d ts=%d, want version=%d ts=%d",
			got.Version, got.CommitTS, wantRec.Version, wantRec.CommitTS)
	}

	// Source redirects the moved keys and still serves the rest.
	var me *cluster.MovedError
	if _, err := ca.Read(ctx, "usertable", inSlot[0], nil); !errors.As(err, &me) {
		t.Fatalf("read of moved key on source: got %v, want MovedError", err)
	}
	if me.Owner != b.URL || me.MapVersion != next.Version {
		t.Errorf("source moved hints: owner=%q v=%d", me.Owner, me.MapVersion)
	}
	for _, k := range elsewhere {
		if _, err := ca.Read(ctx, "usertable", k, nil); err != nil {
			t.Fatalf("read of unmoved key %s on source: %v", k, err)
		}
	}

	// Writes continue on the destination: the slot thawed with the move.
	if err := cb.Update(ctx, "usertable", inSlot[0], rec("v3")); err != nil {
		t.Errorf("write to migrated slot on destination: %v", err)
	}
}

// A migration retry after a mid-copy failure must be harmless: the
// records it re-ships are skipped by the destination's ingest.
func TestMigrateSlotIdempotentCopy(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := NewClient(a.URL, a.srv.Client())

	slot := m.SlotsOf(a.URL)[0]
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("user%05d", i)
		if _, s := m.Owner(k); s == slot {
			key = k
			break
		}
	}
	if err := ca.Insert(ctx, "usertable", key, rec("v1")); err != nil {
		t.Fatal(err)
	}
	// Simulate the copy half of a failed earlier attempt.
	ts, err := fetchSnapshotTS(ctx, a.srv.Client(), a.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := copySlot(ctx, a.srv.Client(), b.URL, "usertable", slot, ts); err != nil {
		t.Fatal(err)
	}
	// The real migration re-copies the same records, then cuts over.
	if _, err := MigrateSlot(ctx, a.srv.Client(), m, slot, b.URL); err != nil {
		t.Fatalf("retry migration: %v", err)
	}
	got, err := b.store.Get("usertable", key)
	if err != nil || string(got.Fields["f"]) != "v1" || got.Version != 1 {
		t.Errorf("after idempotent re-copy: %+v %v", got, err)
	}
}

// A slot that migrates away and back must not resurrect keys deleted
// while it lived elsewhere: the source keeps its hidden pre-migration
// records, so the return copy has to carry the new owner's tombstones
// over them.
func TestMigrateBackPreservesDeletes(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	hc := a.srv.Client()
	ca := NewClient(a.URL, hc)

	slot := m.SlotsOf(a.URL)[0]
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("user%05d", i)
		if _, s := m.Owner(k); s == slot {
			keys = append(keys, k)
		}
	}
	doomed, kept := keys[0], keys[1]
	for _, k := range keys {
		if err := ca.Insert(ctx, "usertable", k, rec("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	next, err := MigrateSlot(ctx, hc, m, slot, b.URL)
	if err != nil {
		t.Fatalf("migrate a→b: %v", err)
	}
	cb := NewClient(b.URL, hc)
	if err := cb.Delete(ctx, "usertable", doomed); err != nil {
		t.Fatalf("delete on new owner: %v", err)
	}

	back, err := MigrateSlot(ctx, hc, next, slot, a.URL)
	if err != nil {
		t.Fatalf("migrate b→a: %v", err)
	}
	if back.OwnerOfSlot(slot) != a.URL {
		t.Fatalf("slot owner after return = %s", back.OwnerOfSlot(slot))
	}
	if _, err := ca.Read(ctx, "usertable", doomed, nil); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("deleted key resurrected after migrate-back: err=%v", err)
	}
	if got, err := ca.Read(ctx, "usertable", kept, nil); err != nil || string(got["f"]) != "v-"+kept {
		t.Fatalf("undeleted key after migrate-back: %v %v", got, err)
	}
	// The delete landed on a's engine as a tombstone version shadowing
	// the hidden pre-migration record, not as an untouched head.
	if _, err := a.store.Get("usertable", doomed); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("engine head read of deleted key: %v", err)
	}
}

// vacuumingEngine sweeps its store with Vacuum before every tombstone
// scan page it serves: a source vacuuming in a loop, with a sweep
// landing inside the migration copy every time.
type vacuumingEngine struct {
	kvstore.Engine
	store  *kvstore.Store
	sweeps atomic.Int64
}

func (e *vacuumingEngine) ScanVersionsAsOf(table, start string, count int, ts int64) ([]kvstore.VersionedKV, error) {
	e.store.Vacuum()
	e.sweeps.Add(1)
	return e.store.ScanVersionsAsOf(table, start, count, ts)
}

// TestMigrateBackPreservesDeletes with the return copy's source
// vacuuming during the copy, at default retention: the tombstone the
// copy must carry is purgeable the moment it is written, so only the
// pin the freeze takes — and Vacuum purging nothing under a pin —
// keeps it until the copy has read it.
func TestMigrateBackPreservesDeletesUnderVacuum(t *testing.T) {
	a, b := listenNode(t), listenNode(t)
	m, err := cluster.NewUniform(cluster.PlacementHash, 8, []string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bStore := openTestStore(t)
	vac := &vacuumingEngine{Engine: bStore, store: bStore}
	for _, n := range []struct {
		tn  *testNode
		eng kvstore.Engine
	}{{a, openTestStore(t)}, {b, vac}} {
		cs, err := cluster.NewState(n.tn.URL, m, n.tn.reg)
		if err != nil {
			t.Fatal(err)
		}
		n.tn.serve(t, n.eng, cs, 0)
	}
	ctx := context.Background()
	hc := a.srv.Client()
	ca := NewClient(a.URL, hc)

	slot := m.SlotsOf(a.URL)[0]
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		k := fmt.Sprintf("user%05d", i)
		if _, s := m.Owner(k); s == slot {
			keys = append(keys, k)
		}
	}
	doomed, kept := keys[0], keys[1]
	for _, k := range keys {
		if err := ca.Insert(ctx, "usertable", k, rec("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	next, err := MigrateSlot(ctx, hc, m, slot, b.URL)
	if err != nil {
		t.Fatalf("migrate a→b: %v", err)
	}
	if err := NewClient(b.URL, hc).Delete(ctx, "usertable", doomed); err != nil {
		t.Fatalf("delete on new owner: %v", err)
	}

	if _, err := MigrateSlot(ctx, hc, next, slot, a.URL); err != nil {
		t.Fatalf("migrate b→a: %v", err)
	}
	if vac.sweeps.Load() == 0 {
		t.Fatal("the return copy never scanned b's tombstones")
	}
	if _, err := ca.Read(ctx, "usertable", doomed, nil); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("deleted key resurrected after migrate-back under vacuum: err=%v", err)
	}
	if got, err := ca.Read(ctx, "usertable", kept, nil); err != nil || string(got["f"]) != "v-"+kept {
		t.Fatalf("undeleted key after migrate-back: %v %v", got, err)
	}
	// The freeze's pin went with the freeze: b purges the tombstone now.
	if _, purged := bStore.Vacuum(); purged != 1 {
		t.Errorf("vacuum after the migration purged %d keys, want doomed's tombstone", purged)
	}
}

// A migration whose map is already superseded somewhere in the fleet
// must abort in preflight, before freezing or copying anything.
func TestMigrateSlotAbortsWhenFleetAhead(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()

	// A concurrent migration already advanced b past m.
	ahead := m.Clone()
	ahead.Version++
	if _, err := b.state.Install(ahead); err != nil {
		t.Fatal(err)
	}

	slot := m.SlotsOf(a.URL)[0]
	if _, err := MigrateSlot(ctx, a.srv.Client(), m, slot, b.URL); err == nil {
		t.Fatal("migration built from a superseded map ran anyway")
	}
	if a.state.Frozen(slot) {
		t.Error("aborted preflight left the slot frozen")
	}
	if got := a.state.Map().Version; got != m.Version {
		t.Errorf("aborted preflight moved a's map to v%d", got)
	}
}

// Migration argument validation and the no-op case.
func TestMigrateSlotValidation(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a := nodes[0]
	m := a.state.Map()
	ctx := context.Background()

	if _, err := MigrateSlot(ctx, a.srv.Client(), m, 99, nodes[1].URL); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := MigrateSlot(ctx, a.srv.Client(), m, 0, "http://stranger:1"); err == nil {
		t.Error("non-member destination accepted")
	}
	slot := m.SlotsOf(a.URL)[0]
	same, err := MigrateSlot(ctx, a.srv.Client(), m, slot, a.URL)
	if err != nil || same.Version != m.Version {
		t.Errorf("self-migration should be a version-preserving no-op: %v v%d", err, same.Version)
	}
}

// loadSlot writes n records with keys in slot under m straight into
// store, returning their keys in order.
func loadSlot(t *testing.T, store kvstore.Engine, m *cluster.Map, slot, n int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("user%06d", i)
		if m.SlotOf(k) != slot {
			continue
		}
		if _, err := store.Put("usertable", k, map[string][]byte{"f": []byte("v-" + k)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// A slot larger than one credit window moves source → destination in
// one hop: the source streams it as a dozen chunks, the destination's
// frame listener reads nothing (it dials out; nobody writes to it),
// every record keeps the source's version and commit ts, and the
// copied tombstones shadow the stale records the destination kept from
// an earlier stint as owner.
func TestMigrateSlotCopiesManyChunks(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	slot := m.SlotsOf(a.URL)[0]
	const live, dead = 3000, 50
	keys := loadSlot(t, a.store, m, slot, live+dead)
	for i, k := range keys[:dead] {
		stale := kvstore.BulkKV{Key: k, Fields: map[string][]byte{"f": []byte("stale")}, Version: 1, CommitTS: int64(i + 1)}
		if err := b.store.Ingest("usertable", []kvstore.BulkKV{stale}); err != nil {
			t.Fatal(err)
		}
		if err := a.store.Delete("usertable", k); err != nil {
			t.Fatal(err)
		}
	}
	for i := dead; i < len(keys); i += 10 {
		if _, err := a.store.Put("usertable", keys[i], map[string][]byte{"f": []byte("v2")}); err != nil {
			t.Fatal(err)
		}
	}

	framesIn := b.counter("kvwire_frames_total", "dir", "in")
	chunks := a.counter("kvwire_scan_chunks_total")
	if _, err := MigrateSlot(context.Background(), a.srv.Client(), m, slot, b.URL); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if n := b.counter("kvwire_frames_total", "dir", "in") - framesIn; n != 0 {
		t.Errorf("destination's frame listener read %d frames during the migration, want 0", n)
	}
	if n := a.counter("kvwire_scan_chunks_total") - chunks; n < 12 {
		t.Errorf("source streamed %d chunks, want ≥ 12", n)
	}
	if n := b.counter("kvwire_ingest_records_total"); n != live+dead {
		t.Errorf("destination ingested %d records, want %d", n, live+dead)
	}
	cb := NewClient(b.URL, b.srv.Client())
	for i, k := range keys {
		got, err := b.store.Get("usertable", k)
		if i < dead {
			if !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("tombstoned %s readable on the destination: %+v, %v", k, got, err)
			}
			if _, err := cb.Read(context.Background(), "usertable", k, nil); !errors.Is(err, db.ErrNotFound) {
				t.Fatalf("tombstoned %s served by the destination: %v", k, err)
			}
			continue
		}
		want, werr := a.store.Get("usertable", k)
		if err != nil || werr != nil {
			t.Fatalf("%s: destination %v, source %v", k, err, werr)
		}
		if got.Version != want.Version || got.CommitTS != want.CommitTS || string(got.Fields["f"]) != string(want.Fields["f"]) {
			t.Fatalf("%s: destination v%d@%d %q, source v%d@%d %q", k,
				got.Version, got.CommitTS, got.Fields["f"], want.Version, want.CommitTS, want.Fields["f"])
		}
	}
}

// gatedIngest parks every Ingest call until release hands it a turn, so
// a copy can be held in flight on the destination.
type gatedIngest struct {
	kvstore.Engine
	entered, release chan struct{}
	once             sync.Once
}

func (e *gatedIngest) Ingest(table string, kvs []kvstore.BulkKV) error {
	e.once.Do(func() { close(e.entered) })
	<-e.release
	return e.Engine.Ingest(table, kvs)
}

// scanProducers counts the wire servers' scan producer goroutines in
// this process.
func scanProducers() int {
	for n := 1 << 20; ; n *= 2 {
		buf := make([]byte, n)
		if used := runtime.Stack(buf, true); used < n {
			return bytes.Count(buf[:used], []byte("kvwire.(*Server).runScan("))
		}
	}
}

// The copy route is control plane with checked input: a standalone node
// has none (404), a bad slot or ts or a missing table is a 400, only
// POST is served, and a slot the node owns itself has no source to
// pull from (409).
func TestCopyRouteRejects(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	standalone := startNode(t, nil)
	do := func(tn *testNode, method, query string) int {
		t.Helper()
		req, err := http.NewRequest(method, tn.URL+"/v1/shardmap/copy?"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := tn.srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		drainClose(resp)
		return resp.StatusCode
	}
	slot := m.SlotsOf(a.URL)[0]
	ok := fmt.Sprintf("slot=%d&ts=5&table=usertable", slot)
	for _, c := range []struct {
		tn     *testNode
		method string
		query  string
		want   int
	}{
		{standalone, http.MethodPost, ok, http.StatusNotFound},
		{b, http.MethodGet, ok, http.StatusMethodNotAllowed},
		{b, http.MethodPost, "slot=x&ts=5&table=usertable", http.StatusBadRequest},
		{b, http.MethodPost, "slot=-1&ts=5&table=usertable", http.StatusBadRequest},
		{b, http.MethodPost, "slot=8&ts=5&table=usertable", http.StatusBadRequest},
		{b, http.MethodPost, fmt.Sprintf("slot=%d&ts=x&table=usertable", slot), http.StatusBadRequest},
		{b, http.MethodPost, fmt.Sprintf("slot=%d&ts=0&table=usertable", slot), http.StatusBadRequest},
		{b, http.MethodPost, fmt.Sprintf("slot=%d&table=usertable", slot), http.StatusBadRequest},
		{b, http.MethodPost, fmt.Sprintf("slot=%d&ts=5", slot), http.StatusBadRequest},
		{a, http.MethodPost, ok, http.StatusConflict},
	} {
		if got := do(c.tn, c.method, c.query); got != c.want {
			t.Errorf("%s %s?%s: %d, want %d", c.method, c.tn.URL, c.query, got, c.want)
		}
	}
}

// A copy holds one batch admission slot on the destination for as long
// as it runs: a second copy meanwhile is shed (429), and the migration
// that asked for it thaws its slot. The copy lives as long as its
// request: a coordinator that goes away stops the pull, and the
// source's scan producer exits.
func TestCopyRouteShedsAndFollowsItsCoordinator(t *testing.T) {
	a, b := listenNode(t), listenNode(t)
	m, err := cluster.NewUniform(cluster.PlacementHash, 8, []string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedIngest{Engine: openTestStore(t), entered: make(chan struct{}), release: make(chan struct{})}
	for _, n := range []struct {
		tn          *testNode
		eng         kvstore.Engine
		maxInflight int
	}{{a, openTestStore(t), 0}, {b, gate, 1}} {
		cs, err := cluster.NewState(n.tn.URL, m, n.tn.reg)
		if err != nil {
			t.Fatal(err)
		}
		n.tn.serve(t, n.eng, cs, n.maxInflight)
	}
	t.Cleanup(func() { close(gate.release) }) // before the servers close
	hc := a.srv.Client()
	slot := m.SlotsOf(a.URL)[0]
	// 16 chunks: more than two pull batches and the window behind them,
	// so the source stays parked whatever the pull does short of ending.
	loadSlot(t, a.store, m, slot, 4000)
	ts, err := fetchSnapshotTS(context.Background(), hc, a.URL)
	if err != nil {
		t.Fatal(err)
	}
	baseline := scanProducers()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- copySlot(ctx, hc, b.URL, "usertable", slot, ts) }()
	<-gate.entered
	deadline := time.Now().Add(5 * time.Second)
	for a.counter("kvwire_stream_credits_stalled_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the source's producer never parked on credits")
		}
		time.Sleep(time.Millisecond)
	}
	if n := scanProducers(); n != baseline+1 {
		t.Fatalf("%d scan producers running, want the copy's one", n-baseline)
	}

	if err := copySlot(context.Background(), hc, b.URL, "usertable", slot, ts); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second copy: %v, want 429", err)
	}
	if _, err := MigrateSlot(context.Background(), hc, m, slot, b.URL); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("migration over a shed copy: %v, want its 429", err)
	}
	if a.state.Frozen(slot) {
		t.Error("shed copy left the slot frozen")
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled copy: %v, want context.Canceled", err)
	}
	// One more batch lands, then the pull must find its request gone; a
	// pull that went on would park in its next Ingest, the source's
	// producer on credits.
	gate.release <- struct{}{}
	for deadline := time.Now().Add(5 * time.Second); scanProducers() != baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("source scan goroutine still running after the coordinator went away")
		}
	}
}
