package cluster

import (
	"testing"
)

func mustUniform(t *testing.T, placement string, slots int, nodes []string, bounds []string) *Map {
	t.Helper()
	m, err := NewUniform(placement, slots, nodes, bounds)
	if err != nil {
		t.Fatalf("NewUniform(%s, %d, %v): %v", placement, slots, nodes, err)
	}
	return m
}

func TestNewUniformRoundRobin(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	m := mustUniform(t, PlacementHash, 8, nodes, nil)
	if m.Version != 1 {
		t.Fatalf("fresh map version = %d, want 1", m.Version)
	}
	counts := make(map[string]int)
	for slot := 0; slot < m.Slots; slot++ {
		counts[m.OwnerOfSlot(slot)]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Errorf("node %s owns no slots: %v", n, counts)
		}
	}
}

func TestHashPlacementCoversAllSlots(t *testing.T) {
	m := mustUniform(t, PlacementHash, 16, []string{"http://a", "http://b"}, nil)
	seen := make(map[int]bool)
	for i := 0; i < 4096; i++ {
		slot := m.SlotOf(key(t, i))
		if slot < 0 || slot >= m.Slots {
			t.Fatalf("slot %d out of range", slot)
		}
		seen[slot] = true
	}
	if len(seen) != m.Slots {
		t.Errorf("4096 keys hit only %d/%d slots", len(seen), m.Slots)
	}
}

func key(t *testing.T, i int) string {
	t.Helper()
	return "user" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestRangePlacement(t *testing.T) {
	m := mustUniform(t, PlacementRange, 3, []string{"http://a", "http://b"}, []string{"g", "p"})
	cases := map[string]int{
		"a": 0, "f": 0, "g": 1, "m": 1, "p": 2, "z": 2, "": 0,
	}
	for k, want := range cases {
		if got := m.SlotOf(k); got != want {
			t.Errorf("SlotOf(%q) = %d, want %d", k, got, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Map {
		return mustUniform(t, PlacementHash, 4, []string{"http://a", "http://b"}, nil)
	}
	cases := []struct {
		name   string
		break_ func(*Map)
	}{
		{"zero version", func(m *Map) { m.Version = 0 }},
		{"bad placement", func(m *Map) { m.Placement = "random" }},
		{"no nodes", func(m *Map) { m.Nodes = nil }},
		{"empty node", func(m *Map) { m.Nodes[0] = "" }},
		{"duplicate node", func(m *Map) { m.Nodes[1] = m.Nodes[0] }},
		{"assign length", func(m *Map) { m.Assign = m.Assign[:2] }},
		{"assign out of range", func(m *Map) { m.Assign[0] = 7 }},
		{"hash with bounds", func(m *Map) { m.Bounds = []string{"k"} }},
	}
	for _, tc := range cases {
		m := base()
		tc.break_(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken map", tc.name)
		}
	}
	// Range-specific: wrong bound count, unsorted bounds.
	rm := mustUniform(t, PlacementRange, 3, []string{"http://a"}, []string{"g", "p"})
	rm.Bounds = []string{"p", "g"}
	if err := rm.Validate(); err == nil {
		t.Error("unsorted bounds accepted")
	}
	rm2 := mustUniform(t, PlacementRange, 3, []string{"http://a"}, []string{"g", "p"})
	rm2.Bounds = rm2.Bounds[:1]
	if err := rm2.Validate(); err == nil {
		t.Error("wrong bound count accepted")
	}
}

func TestWithSlotMoved(t *testing.T) {
	m := mustUniform(t, PlacementHash, 4, []string{"http://a", "http://b"}, nil)
	moved, err := m.WithSlotMoved(2, "http://b")
	if err != nil {
		t.Fatal(err)
	}
	if moved.Version != m.Version+1 {
		t.Errorf("version = %d, want %d", moved.Version, m.Version+1)
	}
	if moved.OwnerOfSlot(2) != "http://b" {
		t.Errorf("slot 2 owner = %s, want http://b", moved.OwnerOfSlot(2))
	}
	// The original is untouched (immutability).
	if m.OwnerOfSlot(2) != "http://a" {
		t.Errorf("original map mutated: slot 2 owner = %s", m.OwnerOfSlot(2))
	}
	if _, err := m.WithSlotMoved(99, "http://b"); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := m.WithSlotMoved(0, "http://nope"); err == nil {
		t.Error("non-member node accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustUniform(t, PlacementRange, 3, []string{"http://a", "http://b"}, []string{"g", "p"})
	doc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != m.Version || back.Placement != m.Placement || back.Slots != m.Slots {
		t.Errorf("round trip mismatch: %+v vs %+v", back, m)
	}
	for i := range m.Assign {
		if back.Assign[i] != m.Assign[i] {
			t.Errorf("assign[%d] = %d, want %d", i, back.Assign[i], m.Assign[i])
		}
	}
	if _, err := Decode([]byte(`{"version":0}`)); err == nil {
		t.Error("Decode accepted an invalid map")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Error("Decode accepted garbage")
	}
}

func TestSlotsOfAndNodeIndex(t *testing.T) {
	m := mustUniform(t, PlacementHash, 4, []string{"http://a", "http://b"}, nil)
	if got := m.NodeIndex("http://b"); got != 1 {
		t.Errorf("NodeIndex = %d, want 1", got)
	}
	if got := m.NodeIndex("http://zzz"); got != -1 {
		t.Errorf("NodeIndex of stranger = %d, want -1", got)
	}
	slots := m.SlotsOf("http://a")
	if len(slots) != 2 {
		t.Errorf("SlotsOf(a) = %v, want 2 slots", slots)
	}
	for _, s := range slots {
		if m.OwnerOfSlot(s) != "http://a" {
			t.Errorf("slot %d not owned by a", s)
		}
	}
	if got := m.SlotsOf("http://zzz"); got != nil {
		t.Errorf("SlotsOf(stranger) = %v, want nil", got)
	}
}
