package kvwire

import (
	"context"
	"fmt"
	"net"
	"testing"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// BenchmarkSlotDrain times one framed slot drain (ScanRequest{Slot,
// Count: -1}), the read half of a migration copy, on a node that holds
// only the slots it owns. Dense1KB is a one-slot map of 2 000 × 1 KB
// records: every record is kept and the page byte bound cuts every
// page. Sparse110B is a 16-slot map split over two nodes, with this
// node holding 8 × ~512 records of 110 B and the drain asking for one
// slot: the filter keeps an eighth of what the engine returns and no
// page is cut by its bytes. Besides ns/op it reports the engine records
// read and the engine calls made per drain.
func BenchmarkSlotDrain(b *testing.B) {
	b.Run("Dense1KB", func(b *testing.B) { benchSlotDrain(b, 1, 2000, 1000) })
	b.Run("Sparse110B", func(b *testing.B) { benchSlotDrain(b, 16, 4096, 100) })
}

// benchSlotDrain loads keys records with one valueLen-byte field, keeping
// only those the node owns under a slots-slot map over two nodes (one
// node when slots is 1), and drains the node's first owned slot.
func benchSlotDrain(b *testing.B, slots, keys, valueLen int) {
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	nodes := []string{"self", "other"}
	if slots == 1 {
		nodes = nodes[:1]
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, slots, nodes, nil)
	if err != nil {
		b.Fatal(err)
	}
	value := map[string][]byte{"f": make([]byte, valueLen)}
	for i, n := 0, 0; n < keys; i++ {
		key := fmt.Sprintf("user%07d", i)
		if owner, _ := m.Owner(key); owner != "self" {
			continue
		}
		if _, err := store.Put("t", key, value); err != nil {
			b.Fatal(err)
		}
		n++
	}
	cs, err := cluster.NewState("self", m, nil)
	if err != nil {
		b.Fatal(err)
	}
	eng := &pageRecorder{Engine: store}
	core := NewCore(eng, cs, 0)
	reg := obs.NewRegistry()
	core.Instrument(reg)
	srv := NewServer(core, ServerOptions{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	ep := NewEndpoint(ln.Addr().String(), 1)
	defer ep.Close()
	slot := m.SlotsOf("self")[0]
	drain := func() int {
		s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: -1, Slot: slot})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		n := 0
		for s.Next() {
			n++
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		return n
	}
	want := drain()
	engine := reg.Counter("kvwire_scan_engine_records_total")
	eng.take()
	engine0 := engine.Value()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := drain(); n != want {
			b.Fatalf("drain %d returned %d records, want %d", i, n, want)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(want), "shipped/op")
	b.ReportMetric(float64(engine.Value()-engine0)/float64(b.N), "engine_recs/op")
	b.ReportMetric(float64(len(eng.take()))/float64(b.N), "engine_calls/op")
}
