package cluster

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/obs"
)

func newTestState(t *testing.T, self string) (*State, *Map) {
	t.Helper()
	m, err := NewUniform(PlacementHash, 4, []string{"http://a", "http://b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(self, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, m
}

// keysFor finds one key per wanted owner under m.
func keysFor(t *testing.T, m *Map, owners ...string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for i := 0; len(out) < len(owners) && i < 10000; i++ {
		k := "key" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		owner, _ := m.Owner(k)
		for _, want := range owners {
			if owner == want && out[want] == "" {
				out[want] = k
			}
		}
	}
	for _, want := range owners {
		if out[want] == "" {
			t.Fatalf("found no key owned by %s", want)
		}
	}
	return out
}

func TestNewStateRejectsStranger(t *testing.T) {
	m, _ := NewUniform(PlacementHash, 4, []string{"http://a"}, nil)
	if _, err := NewState("http://zzz", m, nil); err == nil {
		t.Fatal("NewState accepted a self not in the map")
	}
}

func TestCheckReadWrite(t *testing.T) {
	st, m := newTestState(t, "http://a")
	keys := keysFor(t, m, "http://a", "http://b")

	if err := st.CheckRead(keys["http://a"]); err != nil {
		t.Errorf("owned read rejected: %v", err)
	}
	err := st.CheckRead(keys["http://b"])
	var me *MovedError
	if !errors.As(err, &me) {
		t.Fatalf("foreign read error = %v, want MovedError", err)
	}
	if me.Owner != "http://b" || me.MapVersion != m.Version {
		t.Errorf("MovedError = %+v, want owner b map v%d", me, m.Version)
	}

	release := st.Enter()
	if err := st.CheckWrite(keys["http://a"]); err != nil {
		t.Errorf("owned write rejected: %v", err)
	}
	if err := st.CheckWrite(keys["http://b"]); !errors.As(err, &me) {
		t.Errorf("foreign write error = %v, want MovedError", err)
	}
	release()
}

func TestFreezeRejectsWritesKeepsReads(t *testing.T) {
	st, m := newTestState(t, "http://a")
	k := keysFor(t, m, "http://a")["http://a"]
	slot := m.SlotOf(k)

	if err := st.Freeze(slot); err != nil {
		t.Fatal(err)
	}
	if !st.Frozen(slot) {
		t.Error("Frozen(slot) = false after Freeze")
	}
	if err := st.CheckRead(k); err != nil {
		t.Errorf("read of frozen slot rejected: %v", err)
	}
	release := st.Enter()
	err := st.CheckWrite(k)
	release()
	var me *MovedError
	if !errors.As(err, &me) {
		t.Fatalf("write to frozen slot error = %v, want MovedError", err)
	}
	if me.Owner != "" {
		t.Errorf("frozen MovedError carries owner %q, want empty (back off, not redirect)", me.Owner)
	}

	st.Thaw(slot)
	release = st.Enter()
	if err := st.CheckWrite(k); err != nil {
		t.Errorf("write after Thaw rejected: %v", err)
	}
	release()
}

func TestFreezeUnownedSlotFails(t *testing.T) {
	st, m := newTestState(t, "http://a")
	k := keysFor(t, m, "http://b")["http://b"]
	if err := st.Freeze(m.SlotOf(k)); err == nil {
		t.Error("Freeze accepted a slot this node does not own")
	}
	if err := st.Freeze(-1); err == nil {
		t.Error("Freeze accepted slot -1")
	}
}

// TestFreezeWaitsOutInflightWrites pins the barrier contract: Freeze
// must not return while a mutation that passed CheckWrite is still
// between check and apply.
func TestFreezeWaitsOutInflightWrites(t *testing.T) {
	st, m := newTestState(t, "http://a")
	k := keysFor(t, m, "http://a")["http://a"]
	slot := m.SlotOf(k)

	var applied atomic.Bool
	inCheck := make(chan struct{})
	proceed := make(chan struct{})
	go func() {
		release := st.Enter()
		defer release()
		if err := st.CheckWrite(k); err != nil {
			t.Error(err)
			return
		}
		close(inCheck)
		<-proceed
		applied.Store(true) // the "engine apply"
	}()

	<-inCheck
	frozen := make(chan struct{})
	go func() {
		if err := st.Freeze(slot); err != nil {
			t.Error(err)
		}
		close(frozen)
	}()

	select {
	case <-frozen:
		t.Fatal("Freeze returned while a checked write was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(proceed)
	<-frozen
	if !applied.Load() {
		t.Error("Freeze returned before the in-flight apply finished")
	}
}

func TestInstall(t *testing.T) {
	st, m := newTestState(t, "http://a")

	// Stale and equal versions are rejected.
	if _, err := st.Install(m); err == nil {
		t.Error("Install accepted same version")
	}
	// Geometry changes are rejected.
	geo := m.Clone()
	geo.Version++
	geo.Slots = 8
	geo.Assign = make([]int, 8)
	if _, err := st.Install(geo); err == nil {
		t.Error("Install accepted a geometry change")
	}
	// Dropping self is rejected.
	drop, err := NewUniform(PlacementHash, 4, []string{"http://b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	drop.Version = m.Version + 1
	if _, err := st.Install(drop); err == nil {
		t.Error("Install accepted a map without self")
	}

	// A legitimate successor installs and clears freezes.
	k := keysFor(t, m, "http://a")["http://a"]
	slot := m.SlotOf(k)
	if err := st.Freeze(slot); err != nil {
		t.Fatal(err)
	}
	next, err := m.WithSlotMoved(slot, "http://b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Install(next); err != nil {
		t.Fatal(err)
	}
	if st.Map().Version != next.Version {
		t.Errorf("installed version = %d, want %d", st.Map().Version, next.Version)
	}
	if st.Frozen(slot) {
		t.Error("Install left the slot frozen")
	}
	// The moved slot now rejects even reads here.
	if err := st.CheckRead(k); err == nil {
		t.Error("read of moved-away slot accepted after install")
	}
}

// TestInstallCAS pins the conditional-install contract the migration
// cutover rides on: the install lands only when the node's map is at
// exactly the expected predecessor version.
func TestInstallCAS(t *testing.T) {
	st, m := newTestState(t, "http://a")
	next := m.Clone()
	next.Version++

	if _, err := st.InstallCAS(next, m.Version+5); err == nil {
		t.Error("InstallCAS accepted a wrong expected version")
	}
	if st.Map().Version != m.Version {
		t.Fatalf("failed CAS changed the map to v%d", st.Map().Version)
	}
	if _, err := st.InstallCAS(next, m.Version); err != nil {
		t.Fatalf("InstallCAS with the right predecessor: %v", err)
	}
	if st.Map().Version != next.Version {
		t.Errorf("installed version = %d, want %d", st.Map().Version, next.Version)
	}
	// A second racing v+1 built from the same predecessor must lose.
	rival := m.Clone()
	rival.Version = next.Version
	if _, err := st.InstallCAS(rival, m.Version); err == nil {
		t.Error("InstallCAS accepted a rival successor of an already-consumed predecessor")
	}
}

// Rebalancing moves slots; it must not silently re-split the key
// space. A successor with different range bounds would remap keys to
// different slots under the same slot count.
func TestInstallRejectsBoundsChange(t *testing.T) {
	m, err := NewUniform(PlacementRange, 3, []string{"http://a", "http://b"}, []string{"g", "p"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState("http://a", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := m.Clone()
	next.Version++
	next.Bounds = []string{"g", "q"}
	if _, err := st.Install(next); err == nil {
		t.Error("Install accepted a map with different range bounds")
	}
	next.Bounds = []string{"g", "p"}
	if _, err := st.Install(next); err != nil {
		t.Errorf("Install rejected a map with unchanged bounds: %v", err)
	}
}

// Install concludes only the migrations the new map actually settles:
// a freeze for a slot the map leaves in place belongs to a different
// in-flight migration and must survive.
func TestInstallKeepsUnrelatedFreeze(t *testing.T) {
	st, m := newTestState(t, "http://a")
	keys := keysFor(t, m, "http://a", "http://b")
	moved := m.SlotOf(keys["http://a"])
	kept := -1
	for slot := 0; slot < m.Slots; slot++ {
		if slot != moved && m.OwnerOfSlot(slot) == "http://a" {
			kept = slot
			break
		}
	}
	if kept < 0 {
		t.Skip("no second owned slot under this map")
	}
	if err := st.Freeze(moved); err != nil {
		t.Fatal(err)
	}
	if err := st.Freeze(kept); err != nil {
		t.Fatal(err)
	}
	next, err := m.WithSlotMoved(moved, "http://b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Install(next); err != nil {
		t.Fatal(err)
	}
	if st.Frozen(moved) {
		t.Error("install left the migrated slot frozen")
	}
	if !st.Frozen(kept) {
		t.Error("install cleared the freeze of a slot it did not move")
	}
}

// A freeze is exclusive: a frozen slot refuses a second freeze until a
// thaw.
func TestFreezeIsExclusive(t *testing.T) {
	st, m := newTestState(t, "http://a")
	slot := m.SlotOf(keysFor(t, m, "http://a")["http://a"])
	if err := st.Freeze(slot); err != nil {
		t.Fatal(err)
	}
	if err := st.Freeze(slot); err == nil {
		t.Fatal("a second freeze of a frozen slot succeeded")
	}
	st.Thaw(slot)
	if err := st.Freeze(slot); err != nil {
		t.Fatalf("freeze after a thaw: %v", err)
	}
}

func TestMovedCounterAndGauge(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := NewUniform(PlacementHash, 4, []string{"http://a", "http://b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState("http://a", m, reg)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysFor(t, m, "http://b")
	st.CheckRead(keys["http://b"])
	st.CheckRead(keys["http://b"])

	var out strings.Builder
	if err := reg.Export(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, `httpkv_moved_total{node="http://a"} 2`) {
		t.Errorf("exposition missing moved counter:\n%s", text)
	}
	if !strings.Contains(text, "cluster_shardmap_version") {
		t.Errorf("exposition missing shard map version gauge:\n%s", text)
	}
}

func TestConcurrentCheckWriteVsInstall(t *testing.T) {
	st, m := newTestState(t, "http://a")
	keys := keysFor(t, m, "http://a")
	k := keys["http://a"]

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				release := st.Enter()
				st.CheckWrite(k)
				release()
			}
		}()
	}
	cur := m
	for v := 0; v < 50; v++ {
		next := cur.Clone()
		next.Version++
		if _, err := st.Install(next); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	close(stop)
	wg.Wait()
	if st.Map().Version != cur.Version {
		t.Errorf("final version = %d, want %d", st.Map().Version, cur.Version)
	}
}
