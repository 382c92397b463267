package httpkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
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
	ca := NewClient(a.URL, nil)

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

	next, err := MigrateSlot(ctx, m, slot, b.URL)
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
	cb := NewClient(b.URL, nil)
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
// retry's copy drops what the failed one left on the destination and
// lands the slot once.
func TestMigrateSlotIdempotentCopy(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := NewClient(a.URL, nil)

	slot := m.SlotsOf(a.URL)[0]
	key := slotKeys(m, slot, 1)[0]
	if err := ca.Insert(ctx, "usertable", key, rec("v1")); err != nil {
		t.Fatal(err)
	}
	// Simulate the copy half of a failed earlier attempt.
	if err := b.client(t, WireModeOff).copySlot(ctx, "usertable", slot); err != nil {
		t.Fatal(err)
	}
	// The real migration re-copies the same records, then cuts over.
	if _, err := MigrateSlot(ctx, m, slot, b.URL); err != nil {
		t.Fatalf("retry migration: %v", err)
	}
	got, err := b.store.Get("usertable", key)
	if err != nil || string(got.Field("f")) != "v1" || got.Version != 1 || got.Prev() != nil {
		t.Errorf("after idempotent re-copy: %+v %v", got, err)
	}
	if n := b.counter("kvwire_ingest_records_total"); n != 2 {
		t.Errorf("destination ingested %d records, want the key once per copy", n)
	}
}

// A slot that migrates away and back must not resurrect keys deleted
// while it lived elsewhere: the former owner dropped the slot when it
// gave it away, so the return copy lands on an empty slot.
func TestMigrateBackPreservesDeletes(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := NewClient(a.URL, nil)

	slot := m.SlotsOf(a.URL)[0]
	keys := slotKeys(m, slot, 2)
	doomed, kept := keys[0], keys[1]
	for _, k := range keys {
		if err := ca.Insert(ctx, "usertable", k, rec("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}

	next, err := MigrateSlot(ctx, m, slot, b.URL)
	if err != nil {
		t.Fatalf("migrate a→b: %v", err)
	}
	if n := a.store.Len("usertable"); n != 0 {
		t.Fatalf("source still holds %d records of the slot it gave away", n)
	}
	cb := NewClient(b.URL, nil)
	if err := cb.Delete(ctx, "usertable", doomed); err != nil {
		t.Fatalf("delete on new owner: %v", err)
	}

	back, err := MigrateSlot(ctx, next, slot, a.URL)
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
	// a's engine has no record of the deleted key at all, not a live
	// pre-migration head the ownership gate used to hide.
	if _, err := a.store.Get("usertable", doomed); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("engine head read of deleted key: %v", err)
	}
}

// The regression the drop fixes: a tombstone the new owner's Vacuum
// purges before the slot migrates back leaves nothing to carry, so a
// former owner that kept its pre-migration records served the deleted
// key again.
func TestMigrateBackAfterPurgeStaysDeleted(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	ctx := context.Background()
	ca := NewClient(a.URL, nil)

	slot := m.SlotsOf(a.URL)[0]
	keys := slotKeys(m, slot, 2)
	doomed, kept := keys[0], keys[1]
	for _, k := range keys {
		if err := ca.Insert(ctx, "usertable", k, rec("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	next, err := MigrateSlot(ctx, m, slot, b.URL)
	if err != nil {
		t.Fatalf("migrate a→b: %v", err)
	}
	if err := NewClient(b.URL, nil).Delete(ctx, "usertable", doomed); err != nil {
		t.Fatalf("delete on new owner: %v", err)
	}
	if _, purged := b.store.Vacuum(); purged != 1 {
		t.Fatalf("vacuum on the new owner purged %d keys, want doomed's tombstone", purged)
	}
	if _, err := MigrateSlot(ctx, next, slot, a.URL); err != nil {
		t.Fatalf("migrate b→a: %v", err)
	}
	if _, err := ca.Read(ctx, "usertable", doomed, nil); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("purged delete resurrected after migrate-back: err=%v", err)
	}
	if _, err := a.store.Get("usertable", doomed); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("engine head read of the deleted key on the former owner: %v", err)
	}
	if got, err := ca.Read(ctx, "usertable", kept, nil); err != nil || string(got["f"]) != "v-"+kept {
		t.Fatalf("undeleted key after migrate-back: %v %v", got, err)
	}
}

// slotKeys returns the first n keys user00000, user00001, ... in slot.
func slotKeys(m *cluster.Map, slot, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("user%05d", i); m.SlotOf(k) == slot {
			keys = append(keys, k)
		}
	}
	return keys
}

// vacuumingEngine sweeps its store with Vacuum before every scan page
// it serves: a source vacuuming in a loop, with a sweep landing inside
// the migration copy every time.
type vacuumingEngine struct {
	kvstore.Engine
	store  *kvstore.Store
	sweeps atomic.Int64
}

func (e *vacuumingEngine) Scan(table, start string, count int) ([]kvstore.VersionedKV, error) {
	e.store.Vacuum()
	e.sweeps.Add(1)
	return e.store.Scan(table, start, count)
}

// TestMigrateBackPreservesDeletes with the return copy's source
// vacuuming during the copy, at default retention: the tombstone is
// purged before the copy can read it, and nothing needs it — the
// former owner holds no record for it to shadow.
func TestMigrateBackPreservesDeletesUnderVacuum(t *testing.T) {
	bStore := openTestStore(t)
	vac := &vacuumingEngine{Engine: bStore, store: bStore}
	a, b, m := startPair(t, openTestStore(t), vac)
	ctx := context.Background()
	ca := NewClient(a.URL, nil)

	slot := m.SlotsOf(a.URL)[0]
	keys := slotKeys(m, slot, 2)
	doomed, kept := keys[0], keys[1]
	for _, k := range keys {
		if err := ca.Insert(ctx, "usertable", k, rec("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	next, err := MigrateSlot(ctx, m, slot, b.URL)
	if err != nil {
		t.Fatalf("migrate a→b: %v", err)
	}
	if err := NewClient(b.URL, nil).Delete(ctx, "usertable", doomed); err != nil {
		t.Fatalf("delete on new owner: %v", err)
	}

	if _, err := MigrateSlot(ctx, next, slot, a.URL); err != nil {
		t.Fatalf("migrate b→a: %v", err)
	}
	if vac.sweeps.Load() == 0 {
		t.Fatal("the return copy never scanned b")
	}
	if _, err := ca.Read(ctx, "usertable", doomed, nil); !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("deleted key resurrected after migrate-back under vacuum: err=%v", err)
	}
	if got, err := ca.Read(ctx, "usertable", kept, nil); err != nil || string(got["f"]) != "v-"+kept {
		t.Fatalf("undeleted key after migrate-back: %v %v", got, err)
	}
	// b dropped the slot once the slot was back on a: no head, no
	// tombstone.
	if kvs, err := bStore.ScanVersionsAsOf("usertable", "", -1, bStore.SnapshotTS()); err != nil || len(kvs) != 0 {
		t.Errorf("former owner still indexes %d keys of the slot (%v)", len(kvs), err)
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
	if _, err := MigrateSlot(ctx, m, slot, b.URL); err == nil {
		t.Fatal("migration built from a superseded map ran anyway")
	}
	if a.state.Frozen(slot) {
		t.Error("aborted preflight left the slot frozen")
	}
	if got := a.state.Map().Version; got != m.Version {
		t.Errorf("aborted preflight moved a's map to v%d", got)
	}
}

// A freeze is exclusive: a migration of a slot that another
// coordinator has frozen fails on the source's 409, and leaves that
// freeze — not its own to thaw — and every map where they were.
func TestMigrateSlotLeavesAnotherFreeze(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	slot := m.SlotsOf(a.URL)[0]
	target := fmt.Sprintf("/v1/shardmap/freeze?slot=%d", slot)
	if got := controlStatus(t, a, http.MethodPost, target); got != http.StatusOK {
		t.Fatalf("first freeze: %d, want 200", got)
	}
	if got := controlStatus(t, a, http.MethodPost, target); got != http.StatusConflict {
		t.Fatalf("second freeze: %d, want 409", got)
	}
	if _, err := MigrateSlot(context.Background(), m, slot, b.URL); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("migration of a slot frozen by another: %v, want its 409", err)
	}
	if !a.state.Frozen(slot) {
		t.Error("the failed migration thawed a freeze it did not hold")
	}
	for _, tn := range nodes {
		if got := tn.state.Map().Version; got != m.Version {
			t.Errorf("%s at map v%d after the failed migration, want v%d", tn.URL, got, m.Version)
		}
	}
}

// Migration argument validation and the no-op case.
func TestMigrateSlotValidation(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a := nodes[0]
	m := a.state.Map()
	ctx := context.Background()

	if _, err := MigrateSlot(ctx, m, 99, nodes[1].URL); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := MigrateSlot(ctx, m, 0, "http://stranger:1"); err == nil {
		t.Error("non-member destination accepted")
	}
	slot := m.SlotsOf(a.URL)[0]
	same, err := MigrateSlot(ctx, m, slot, a.URL)
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

// A slot larger than one page moves source → destination in one hop:
// the source serves it as three pages, the destination's
// frame listener reads nothing (it dials out; nobody writes to it),
// every record keeps the source's version and commit ts, and the stale
// records the destination kept from an earlier stint as owner are
// dropped, not shadowed: only the live records travel.
func TestMigrateSlotCopiesManyChunks(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	slot := m.SlotsOf(a.URL)[0]
	const live, dead = 3000, 50
	keys := loadSlot(t, a.store, m, slot, live+dead)
	for i, k := range keys[:dead] {
		stale := kvstore.BulkKV{Key: k, Section: kvstore.AppendFields(nil, map[string][]byte{"f": []byte("stale")}), Version: 1, CommitTS: int64(i + 1)}
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

	// Engine records are immutable, so these stay what the source held
	// after it drops the slot.
	source := make(map[string]*kvstore.VersionedRecord, live)
	for _, k := range keys[dead:] {
		rec, err := a.store.Get("usertable", k)
		if err != nil {
			t.Fatal(err)
		}
		source[k] = rec
	}
	framesIn := b.counter("kvwire_frames_total", "dir", "in")
	chunks := a.counter("kvwire_scan_chunks_total")
	if _, err := MigrateSlot(context.Background(), m, slot, b.URL); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	if n := b.counter("kvwire_frames_total", "dir", "in") - framesIn; n != 0 {
		t.Errorf("destination's frame listener read %d frames during the migration, want 0", n)
	}
	if n := a.counter("kvwire_scan_chunks_total") - chunks; n < 3 {
		t.Errorf("source served %d pages, want ≥ 3", n)
	}
	if n := b.counter("kvwire_ingest_records_total"); n != live {
		t.Errorf("destination ingested %d records, want the %d live ones", n, live)
	}
	cb := NewClient(b.URL, nil)
	for i, k := range keys {
		got, err := b.store.Get("usertable", k)
		if i < dead {
			if !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("deleted %s readable on the destination: %+v, %v", k, got, err)
			}
			if _, err := cb.Read(context.Background(), "usertable", k, nil); !errors.Is(err, db.ErrNotFound) {
				t.Fatalf("deleted %s served by the destination: %v", k, err)
			}
			continue
		}
		want := source[k]
		if err != nil {
			t.Fatalf("%s on the destination: %v", k, err)
		}
		if got.Version != want.Version || got.CommitTS != want.CommitTS || string(got.Field("f")) != string(want.Field("f")) {
			t.Fatalf("%s: destination v%d@%d %q, source v%d@%d %q", k,
				got.Version, got.CommitTS, got.Field("f"), want.Version, want.CommitTS, want.Field("f"))
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

// pullsRunning counts the copy routes' pulls running in this process.
func pullsRunning() int {
	for n := 1 << 20; ; n *= 2 {
		buf := make([]byte, n)
		if used := runtime.Stack(buf, true); used < n {
			return bytes.Count(buf[:used], []byte("httpkv.(*Server).pullSlot("))
		}
	}
}

// The copy route is control plane with checked input: a standalone node
// has none (404), a bad slot or a missing table is a 400, only POST is
// served, and a slot the node owns itself has no source to pull from
// (409).
func TestCopyRouteRejects(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	standalone := startNode(t, nil)
	slot := m.SlotsOf(a.URL)[0]
	ok := fmt.Sprintf("slot=%d&table=usertable", slot)
	for _, c := range []struct {
		tn     *testNode
		method string
		query  string
		want   int
	}{
		{standalone, http.MethodPost, ok, http.StatusNotFound},
		{b, http.MethodGet, ok, http.StatusMethodNotAllowed},
		{b, http.MethodPost, "slot=x&table=usertable", http.StatusBadRequest},
		{b, http.MethodPost, "slot=-1&table=usertable", http.StatusBadRequest},
		{b, http.MethodPost, "slot=8&table=usertable", http.StatusBadRequest},
		{b, http.MethodPost, fmt.Sprintf("slot=%d", slot), http.StatusBadRequest},
		{a, http.MethodPost, ok, http.StatusConflict},
	} {
		if got := controlStatus(t, c.tn, c.method, "/v1/shardmap/copy?"+c.query); got != c.want {
			t.Errorf("%s %s?%s: %d, want %d", c.method, c.tn.URL, c.query, got, c.want)
		}
	}
}

// controlStatus sends one bodiless control-plane request to tn and
// returns the status it answered.
func controlStatus(t *testing.T, tn *testNode, method, target string) int {
	t.Helper()
	req, err := http.NewRequest(method, tn.URL+target, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tn.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	discard(resp)
	return resp.StatusCode
}

// The drop route forgets only a slot the node's map gives to another
// node: a standalone node has none (404), only POST is served, a bad
// slot is a 400, and a slot the node owns is refused (409) with every
// record kept.
func TestDropRouteRejects(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	a, b := nodes[0], nodes[1]
	m := a.state.Map()
	standalone := startNode(t, nil)
	slot := m.SlotsOf(a.URL)[0]
	keys := loadSlot(t, a.store, m, slot, 10)
	// b holds the slot's records as a former owner would.
	loadSlot(t, b.store, m, slot, 10)
	drop := fmt.Sprintf("/v1/shardmap/drop?slot=%d", slot)
	for _, c := range []struct {
		tn     *testNode
		method string
		target string
		want   int
	}{
		{standalone, http.MethodPost, drop, http.StatusNotFound},
		{a, http.MethodGet, drop, http.StatusMethodNotAllowed},
		{a, http.MethodPost, "/v1/shardmap/drop?slot=x", http.StatusBadRequest},
		{a, http.MethodPost, "/v1/shardmap/drop?slot=8", http.StatusBadRequest},
		{a, http.MethodPost, drop, http.StatusConflict},
		{b, http.MethodPost, drop, http.StatusOK},
	} {
		if got := controlStatus(t, c.tn, c.method, c.target); got != c.want {
			t.Errorf("%s %s%s: %d, want %d", c.method, c.tn.URL, c.target, got, c.want)
		}
	}
	if n := a.store.Len("usertable"); n != len(keys) {
		t.Errorf("owner holds %d records after a refused drop, want %d", n, len(keys))
	}
	if n := b.store.Len("usertable"); n != 0 {
		t.Errorf("non-owner holds %d records of the slot after its drop, want 0", n)
	}
}

// retainedVersions reads kvstore_versions_retained off reg's exposition.
func retainedVersions(t *testing.T, reg *obs.Registry) int64 {
	t.Helper()
	var out bytes.Buffer
	if err := reg.Export(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "kvstore_versions_retained "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("kvstore_versions_retained %q: %v", v, err)
			}
			return n
		}
	}
	t.Fatal("no kvstore_versions_retained in the exposition")
	return 0
}

// After a migration the source holds no record of the slot it gave
// away: its Len and its retained versions fall by the slot's records,
// and a reopen of its log finds the same.
func TestMigrateSlotDropsSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a")
	open := func() (*kvstore.Store, *obs.Registry) {
		reg := obs.NewRegistry()
		s, err := kvstore.Open(kvstore.Options{Path: path, Shards: 2, Retention: time.Hour, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		return s, reg
	}
	aStore, aReg := open()
	a, b, m := startPair(t, aStore, openTestStore(t))
	slots := m.SlotsOf(a.URL)
	var moved, kept []string
	for round := 0; round < 2; round++ { // the second write retains one version per key
		moved = loadSlot(t, aStore, m, slots[0], 40)
		kept = loadSlot(t, aStore, m, slots[1], 30)
	}
	wantLen, wantRetained := len(kept), int64(len(kept))
	if n, r := aStore.Len("usertable"), retainedVersions(t, aReg); n != wantLen+len(moved) || r != wantRetained+int64(len(moved)) {
		t.Fatalf("before the migration: %d records, %d retained versions", n, r)
	}
	if _, err := MigrateSlot(context.Background(), m, slots[0], b.URL); err != nil {
		t.Fatalf("MigrateSlot: %v", err)
	}
	check := func(when string, s *kvstore.Store, reg *obs.Registry) {
		t.Helper()
		if n := s.Len("usertable"); n != wantLen {
			t.Errorf("%s: source holds %d records, want %d", when, n, wantLen)
		}
		if r := retainedVersions(t, reg); r != wantRetained {
			t.Errorf("%s: source retains %d versions, want %d", when, r, wantRetained)
		}
		for _, k := range moved {
			if _, err := s.Get("usertable", k); !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("%s: source still holds %s: %v", when, k, err)
			}
		}
	}
	check("after the migration", aStore, aReg)
	if err := aStore.Close(); err != nil {
		t.Fatal(err)
	}
	aStore, aReg = open()
	defer aStore.Close()
	check("after a reopen", aStore, aReg)
}

// onFirstIngest runs fn before the first Ingest it forwards.
type onFirstIngest struct {
	kvstore.Engine
	once sync.Once
	fn   func()
}

func (e *onFirstIngest) Ingest(table string, kvs []kvstore.BulkKV) error {
	e.once.Do(e.fn)
	return e.Engine.Ingest(table, kvs)
}

// A destination that refuses the cutover install rolls the slot back to
// the source, which still serves every key: the source drops the slot
// only once the destination has installed.
func TestMigrateSlotRollbackKeepsSource(t *testing.T) {
	// Mid-copy, a concurrent migration's v+1 lands on b, so the cutover's
	// install there fails its version check.
	var b *testNode
	var m *cluster.Map
	hook := &onFirstIngest{Engine: openTestStore(t), fn: func() {
		ahead := m.Clone()
		ahead.Version++
		if _, err := b.state.Install(ahead); err != nil {
			t.Error(err)
		}
	}}
	a, b, m := startPair(t, openTestStore(t), hook)
	ctx := context.Background()
	slot := m.SlotsOf(a.URL)[0]
	keys := loadSlot(t, a.store, m, slot, 20)

	if _, err := MigrateSlot(ctx, m, slot, b.URL); err == nil || !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("migration over a refused destination install: %v, want a rollback", err)
	}
	if owner := a.state.Map().OwnerOfSlot(slot); owner != a.URL {
		t.Fatalf("slot owner after the rollback = %s, want the source", owner)
	}
	if n := a.store.Len("usertable"); n != len(keys) {
		t.Fatalf("source holds %d records after the rollback, want %d", n, len(keys))
	}
	ca := NewClient(a.URL, nil)
	for _, k := range keys {
		if got, err := ca.Read(ctx, "usertable", k, nil); err != nil || string(got["f"]) != "v-"+k {
			t.Fatalf("%s on the source after the rollback: %v %v", k, got, err)
		}
	}
}

// A copy holds one batch admission slot on the destination for as long
// as it runs: a second copy meanwhile is shed (429), and the migration
// that asked for it thaws its slot. The copy lives as long as its
// request: a coordinator that goes away stops the pull before its next
// page, so the source, which holds nothing between pages, serves no
// other.
func TestCopyRouteShedsAndFollowsItsCoordinator(t *testing.T) {
	a, b := listenNode(t), listenNode(t)
	m, err := cluster.NewUniform(cluster.PlacementHash, 8, []string{a.URL, b.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedIngest{Engine: openTestStore(t), entered: make(chan struct{}), release: make(chan struct{})}
	a.join(t, m, openTestStore(t), NodeOptions{})
	b.join(t, m, gate, NodeOptions{MaxInflight: 1})
	t.Cleanup(func() { close(gate.release) }) // before the servers close
	cb := b.client(t, WireModeOff)
	slot := m.SlotsOf(a.URL)[0]
	// Four pages of two pull batches each: the pull is mid-scan whatever
	// it does short of ending.
	loadSlot(t, a.store, m, slot, 4000)
	pages := a.counter("kvwire_scan_chunks_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- cb.copySlot(ctx, "usertable", slot) }()
	<-gate.entered
	if n := pullsRunning(); n != 1 {
		t.Fatalf("%d pulls running, want the copy's one", n)
	}

	if err := cb.copySlot(context.Background(), "usertable", slot); err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("second copy: %v, want 429", err)
	}
	if _, err := MigrateSlot(context.Background(), m, slot, b.URL); err == nil || !strings.Contains(err.Error(), "429") {
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
	// pull that went on would park in its next Ingest.
	gate.release <- struct{}{}
	for deadline := time.Now().Add(5 * time.Second); pullsRunning() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pull still running after the coordinator went away")
		}
	}
	if n := a.counter("kvwire_scan_chunks_total") - pages; n != 1 {
		t.Fatalf("the source served %d pages to a copy stopped inside its first, want 1", n)
	}
}
