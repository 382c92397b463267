package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ycsbt/internal/obs"
)

// MovedError reports that a key's slot is not served by the node that
// received the request. Owner is the address of the node the sender
// believes owns the slot under MapVersion; an empty Owner means the
// slot is frozen for migration on this node — it will be owned
// elsewhere shortly, so the caller should back off and retry rather
// than redirect.
type MovedError struct {
	Key        string
	Owner      string
	MapVersion int64
}

func (e *MovedError) Error() string {
	if e.Owner == "" {
		return fmt.Sprintf("cluster: key %q draining for migration (map v%d)", e.Key, e.MapVersion)
	}
	return fmt.Sprintf("cluster: key %q moved to %s (map v%d)", e.Key, e.Owner, e.MapVersion)
}

// Wire headers carrying moved hints on 410 responses and the map
// version on /v1/shardmap exchanges.
const (
	// HeaderMapVersion carries the responding node's current shard
	// map version.
	HeaderMapVersion = "X-Shard-Map-Version"
	// HeaderOwner carries the owning node's address on a 410; absent
	// or empty while the slot drains for migration.
	HeaderOwner = "X-Shard-Owner"
	// HeaderMapCAS, on a PUT /v1/shardmap, makes the install
	// conditional: it only succeeds when the node's current map version
	// equals the header's value. The migration cutover uses it so two
	// racing migrations built from the same predecessor cannot both
	// install their divergent successors — the loser gets a 409 and
	// aborts instead of silently splitting the fleet.
	HeaderMapCAS = "X-Shard-Map-If-Version"
)

// State is a node's live view of the cluster: the current map, which
// node this process is, and the set of slots frozen for an in-flight
// migration.
//
// Ownership checks and engine mutations must be atomic with respect
// to map installs and freezes, or a write could pass the check under
// map v, commit after the migration snapshot is taken, and be lost.
// State provides that as a read/write barrier: mutating request
// handlers hold the read side (Enter) across check+apply, and
// Freeze/Install take the write side briefly after flipping the
// frozen/map state — returning only once every in-flight mutation
// that saw the old state has drained.
type State struct {
	self string // this node's address as it appears in Map.Nodes

	cur atomic.Pointer[Map]

	mu     sync.RWMutex // the write barrier; protects frozen
	frozen map[int]bool

	movedTotal *obs.Counter
}

// NewState mounts a node at self under the given initial map. self
// must be one of the map's node addresses. The registry may be nil
// (metrics off).
func NewState(self string, m *Map, reg *obs.Registry) (*State, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.NodeIndex(self) < 0 {
		return nil, fmt.Errorf("cluster: self %q not in shard map nodes %v", self, m.Nodes)
	}
	s := &State{self: self, frozen: make(map[int]bool)}
	s.cur.Store(m.Clone())
	reg.Help("cluster_shardmap_version", "Version of the shard map currently installed on this node.")
	reg.GaugeFunc("cluster_shardmap_version", func() float64 {
		return float64(s.Map().Version)
	}, "node", self)
	reg.Help("httpkv_moved_total", "Requests rejected with 410 moved because this node does not own the key's slot.")
	s.movedTotal = reg.Counter("httpkv_moved_total", "node", self)
	return s, nil
}

// Self returns this node's address.
func (s *State) Self() string { return s.self }

// Map returns the currently installed map (immutable; do not modify).
func (s *State) Map() *Map { return s.cur.Load() }

// Enter takes the read side of the write barrier. Mutating request
// handlers call it before the ownership check and release (the
// returned func) only after the engine apply, so Freeze and Install
// can wait out every mutation that raced with them.
func (s *State) Enter() func() {
	s.mu.RLock()
	return s.mu.RUnlock
}

// CheckRead reports whether this node may serve reads of key. Reads
// stay up while a slot drains (the data is still here and immutable
// past the snapshot ts), so only true non-ownership rejects.
func (s *State) CheckRead(key string) error {
	m := s.cur.Load()
	owner, _ := m.Owner(key)
	if owner != s.self {
		s.movedTotal.Inc()
		return &MovedError{Key: key, Owner: owner, MapVersion: m.Version}
	}
	return nil
}

// CheckWrite reports whether this node may apply a mutation of key.
// Must be called with the barrier held (inside Enter). Rejects both
// non-owned slots and owned-but-frozen slots; for frozen slots the
// MovedError carries no owner — the new owner isn't serving yet.
func (s *State) CheckWrite(key string) error {
	m := s.cur.Load()
	owner, slot := m.Owner(key)
	if owner != s.self {
		s.movedTotal.Inc()
		return &MovedError{Key: key, Owner: owner, MapVersion: m.Version}
	}
	if s.frozen[slot] {
		s.movedTotal.Inc()
		return &MovedError{Key: key, MapVersion: m.Version}
	}
	return nil
}

// Freeze marks slot as draining and then waits out every in-flight
// mutation, so that once Freeze returns, any write that passed
// CheckWrite has also finished its engine apply — a snapshot
// timestamp drawn after Freeze captures all of them. Returns an error
// if this node doesn't own the slot, or if the slot is already frozen:
// a freeze is exclusive, held by one migration until its thaw or its
// cutover.
func (s *State) Freeze(slot int) error {
	m := s.cur.Load()
	if slot < 0 || slot >= m.Slots {
		return fmt.Errorf("cluster: slot %d out of range [0,%d)", slot, m.Slots)
	}
	if m.OwnerOfSlot(slot) != s.self {
		return fmt.Errorf("cluster: node %s does not own slot %d", s.self, slot)
	}
	// Lock is the barrier: it waits for every mutation holding the
	// read side, and any mutation entering afterwards sees frozen.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen[slot] {
		return fmt.Errorf("cluster: slot %d is already frozen by another migration", slot)
	}
	s.frozen[slot] = true
	return nil
}

// Thaw clears a freeze (migration aborted; resume serving writes).
func (s *State) Thaw(slot int) {
	s.mu.Lock()
	delete(s.frozen, slot)
	s.mu.Unlock()
}

// Frozen reports whether slot is currently draining.
func (s *State) Frozen(slot int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frozen[slot]
}

// Install publishes a new map. The version must strictly increase and
// the placement geometry (slots, placement, bounds) must be unchanged
// — rebalancing moves slots, it doesn't reshard or re-split the key
// space. Freezes are cleared only for slots the new map actually
// reassigns: those migrations are concluded by the map, while a freeze
// for a slot the map leaves in place belongs to a still-in-flight (or
// unrelated) migration and must survive the install. Returns the
// installed map.
func (s *State) Install(m *Map) (*Map, error) {
	return s.install(m, -1)
}

// InstallCAS is Install conditioned on the exact current version: it
// fails unless the node's map is at expect when the install lands.
// The migration cutover uses it to detect a concurrent migration that
// already moved the fleet past the predecessor this map was built
// from.
func (s *State) InstallCAS(m *Map, expect int64) (*Map, error) {
	return s.install(m, expect)
}

func (s *State) install(m *Map, expect int64) (*Map, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if expect >= 0 && cur.Version != expect {
		return nil, fmt.Errorf("cluster: conditional install of v%d expected current v%d, have v%d", m.Version, expect, cur.Version)
	}
	if m.Version <= cur.Version {
		return nil, fmt.Errorf("cluster: stale map install v%d (have v%d)", m.Version, cur.Version)
	}
	if m.Slots != cur.Slots || m.Placement != cur.Placement {
		return nil, fmt.Errorf("cluster: map v%d changes geometry (slots %d→%d, placement %s→%s)",
			m.Version, cur.Slots, m.Slots, cur.Placement, m.Placement)
	}
	if !stringsEqual(m.Bounds, cur.Bounds) {
		return nil, fmt.Errorf("cluster: map v%d changes range bounds (keys would silently remap to different slots)", m.Version)
	}
	if m.NodeIndex(s.self) < 0 {
		return nil, fmt.Errorf("cluster: map v%d drops self %q", m.Version, s.self)
	}
	installed := m.Clone()
	s.cur.Store(installed)
	for slot := range s.frozen {
		if installed.OwnerOfSlot(slot) != cur.OwnerOfSlot(slot) {
			delete(s.frozen, slot)
		}
	}
	return installed, nil
}

// stringsEqual reports element-wise equality of two string slices.
func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MapJSON renders the current map for the /v1/shardmap endpoint.
func (s *State) MapJSON() []byte {
	doc, _ := s.Map().Encode() // a validated map always encodes
	return doc
}
