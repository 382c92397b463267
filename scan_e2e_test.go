// End-to-end benchmark for paged scans and framed migration: the
// BENCH_scan.json cells. Scan1k is 32 client threads on 1000-record
// scans, each one scan-request frame answered by one page frame;
// MigrateSlot times the wall clock of moving one populated slot between
// two live nodes with the copy riding scan pages. EXPERIMENTS.md
// "Single data plane" stores the ratios against the HTTP/NDJSON paths
// these replaced.
package ycsbt_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/httpkv"
	"ycsbt/internal/properties"
)

// scanCell times 32 client threads each pulling 1000-record scans. The
// records/s metric is the headline: scans move orders of magnitude
// more payload per request than point ops, so per-record encode/decode
// cost dominates.
func scanCell(b *testing.B) {
	store, url := startKVServer(b, 0)
	val := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		if _, err := store.Put("usertable", fmt.Sprintf("user%05d", i), map[string][]byte{"field0": val}); err != nil {
			b.Fatal(err)
		}
	}
	c := httpkv.NewClient(url, nil)
	if err := c.Init(properties.New()); err != nil {
		b.Fatal(err)
	}
	defer c.Cleanup()
	ctx := context.Background()
	// Prime the pool outside the timed region.
	if kvs, err := c.Scan(ctx, "usertable", "user00000", 1000, nil); err != nil || len(kvs) != 1000 {
		b.Fatalf("prime scan: %d records, err=%v", len(kvs), err)
	}
	var seq, recs atomic.Int64
	b.SetParallelism(32)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			from := fmt.Sprintf("user%05d", int(seq.Add(1))%1000)
			kvs, err := c.Scan(ctx, "usertable", from, 1000, nil)
			if err != nil || len(kvs) != 1000 {
				b.Errorf("scan from %s: %d records, err=%v", from, len(kvs), err)
				return
			}
			recs.Add(int64(len(kvs)))
		}
	})
	b.ReportMetric(float64(recs.Load())/time.Since(start).Seconds(), "scan_recs/s")
}

// migrateCell times moving one populated slot back and forth between
// two nodes. Migrating the same slot alternately in each direction
// keeps every iteration's payload identical without reseeding.
func migrateCell(b *testing.B) {
	nodes, m := startFleet(b, 2, 8, nil)
	ctx := context.Background()
	r, err := httpkv.NewRouter(nodeURLs(nodes), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Cleanup()
	// Seed the key space through the router.
	val := make([]byte, 100)
	for i := 0; i < 4096; i++ {
		if err := r.Insert(ctx, "usertable", fmt.Sprintf("user%05d", i), map[string][]byte{"field0": val}); err != nil {
			b.Fatal(err)
		}
	}
	// Migrate a slot node 0 owns; ~1/8 of the keys ride along.
	slot := -1
	for s := 0; s < 8; s++ {
		if m.OwnerOfSlot(s) == nodes[0].url {
			slot = s
			break
		}
	}
	if slot < 0 {
		b.Fatal("node 0 owns no slot")
	}
	dests := [2]string{nodes[1].url, nodes[0].url}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := httpkv.MigrateSlot(ctx, m, slot, dests[i%2])
		if err != nil {
			b.Fatalf("migration %d: %v", i, err)
		}
		m = next
	}
}

// BenchmarkWireScan is the scan benchmark: page frames carry
// length-prefixed binary records that the client decodes in place, and
// MigrateSlot shows the same machinery moving a live slot — the framed
// copy pulls version-preserving records page by page straight into the
// destination engine.
func BenchmarkWireScan(b *testing.B) {
	b.Run("Scan1k", scanCell)
	b.Run("MigrateSlot", migrateCell)
}
