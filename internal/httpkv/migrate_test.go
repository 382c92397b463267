package httpkv

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ycsbt/internal/cluster"
	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
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
	srcEp, dstEp := kvwire.NewEndpoint(a.wireAddr, 1), kvwire.NewEndpoint(b.wireAddr, 1)
	defer srcEp.Close()
	defer dstEp.Close()
	if err := copySlot(ctx, srcEp, dstEp, "usertable", slot, ts); err != nil {
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
