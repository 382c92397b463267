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
					{"SnapshotTS", func() error { _, err := c.SnapshotTS(ctx); return err }},
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
		t.Errorf("server saw %d new connections for %d calls from %d goroutines, want ≤ %d", accepted, workers*rounds*10, workers, workers)
	}
	if got := c.Dials(); got != accepted {
		t.Errorf("Client.Dials() = %d, server counted %d new connections", got, accepted)
	}
}

// TestRouterExportsDialCount: a router on its own pooled transport
// exposes the transport's dial count, and after a burst of routed
// traffic the count is the size of the connection pool in use, not of
// the traffic.
func TestRouterExportsDialCount(t *testing.T) {
	nodes := startTestCluster(t, 2, 8)
	reg := obs.NewRegistry()
	r, err := NewRouter([]string{nodes[0].URL}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cleanup()
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
	var out strings.Builder
	if err := reg.Export(&out); err != nil {
		t.Fatal(err)
	}
	var dials int
	for _, line := range strings.Split(out.String(), "\n") {
		if _, err := fmt.Sscanf(line, "httpkv_client_dials_total %d", &dials); err == nil {
			break
		}
	}
	if dials < 1 || dials > len(nodes) {
		t.Errorf("httpkv_client_dials_total = %d after 100 sequential calls to %d nodes (0 = series missing)", dials, len(nodes))
	}
}
