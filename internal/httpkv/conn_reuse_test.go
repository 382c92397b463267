package httpkv

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// TestClientReusesConnections: one Client on the plain REST path, two
// goroutines, every kind of single-op exchange — including the 404 and
// 412 error answers — and the connections the server sees must stay at
// the number of goroutines, not of the traffic: a request holds one
// connection until its reply is read whole, then pools it. (Under
// net/http, every Read of a workload-sized record — 10 × 100 B, a
// 1537-byte body that json.Decoder stops one byte short of — once
// dialled a fresh connection.)
func TestClientReusesConnections(t *testing.T) {
	tn := startNode(t, kvstore.OpenMemoryShards(4))

	c := NewClient(tn.URL, nil)
	defer c.Cleanup()

	const workers, rounds = 2, 60
	rec := db.Record{}
	for i := 0; i < 10; i++ {
		rec[fmt.Sprintf("field%d", i)] = make([]byte, 100)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("user%d-%d", w, i)
				steps := []struct {
					name string
					run  func() error
				}{
					{"Insert", func() error { return c.Insert(ctx, "t", key, rec) }},
					{"Read", func() error { _, err := c.Read(ctx, "t", key, nil); return err }},
					{"ReadVersioned", func() error { _, err := c.ReadVersioned(ctx, "t", key); return err }},
					{"Update", func() error { return c.Update(ctx, "t", key, db.Record{"field3": make([]byte, 100)}) }},
					{"Scan", func() error { _, err := c.Scan(ctx, "t", key, 5, nil); return err }},
					{"404", func() error {
						if _, err := c.Read(ctx, "t", key+"-missing", nil); !errors.Is(err, db.ErrNotFound) {
							return fmt.Errorf("got %v, want ErrNotFound", err)
						}
						return nil
					}},
					{"412", func() error {
						if err := c.PutIfVersion(ctx, "t", key, rec, 999); !errors.Is(err, db.ErrConflict) {
							return fmt.Errorf("got %v, want ErrConflict", err)
						}
						return nil
					}},
					{"Delete", func() error { return c.Delete(ctx, "t", key) }},
				}
				for _, s := range steps {
					if err := s.run(); err != nil {
						t.Errorf("worker %d round %d %s: %v", w, i, s.name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// A request dials only when no connection is idle, which happens at
	// most once per goroutine.
	accepted := tn.counter("httpkv_conns_accepted_total")
	if accepted > workers {
		t.Errorf("server saw %d new connections for %d calls from %d goroutines, want ≤ %d", accepted, workers*rounds*8, workers, workers)
	}
	if got := c.Dials(); got != accepted {
		t.Errorf("Client.Dials() = %d, server counted %d new connections", got, accepted)
	}
}

// TestRouterExportsDialCount: every router exports
// httpkv_client_dials_total, the sum of its node clients' Dials — the
// connections their REST exchanges opened for the probe and the shard
// map, one per node. Routed calls ride frames, so a burst of them
// leaves it where it was.
func TestRouterExportsDialCount(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	reg := obs.NewRegistry()
	r, err := NewRouter([]string{nodes[0].URL}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cleanup()
	exported := func() int64 {
		var out strings.Builder
		if err := reg.Export(&out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			var n int64
			if _, err := fmt.Sscanf(line, "httpkv_client_dials_total %d", &n); err == nil {
				return n
			}
		}
		t.Fatal("httpkv_client_dials_total is not exported")
		return 0
	}
	before := exported()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("user%05d", i)
		if err := r.Insert(ctx, "t", k, rec("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx, "t", k, nil); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for _, tn := range nodes {
		sum += r.client(tn.URL).Dials()
	}
	if after := exported(); before != int64(len(nodes)) || after != before || after != sum {
		t.Errorf("httpkv_client_dials_total = %d after bootstrap, %d after 100 routed calls; node clients' Dials sum to %d; want %d throughout",
			before, after, sum, len(nodes))
	}
}
