package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// TestClientReusesConnections is the regression test for the
// response-body contract (response.go): one Client on the plain REST
// path, two goroutines, every kind of single-op exchange — including
// the 404 and 412 error answers — and the connections the server sees
// must stay at the size of the pool, not of the traffic. Before the
// fix every Read of a workload-sized record (10 × 100 B: a 1537-byte
// body that json.Decoder stops one byte short of) dialled a fresh
// connection.
func TestClientReusesConnections(t *testing.T) {
	var newConns atomic.Int64
	tn := listenNode(t)
	tn.httpLn = countingListener{tn.httpLn, &newConns}
	tn.serve(t, kvstore.OpenMemoryShards(4), NodeOptions{})

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

	// One more than the goroutines is allowed: at start-up net/http
	// dials for a request that finds no idle connection and keeps the
	// result even when a freed connection served the request first.
	// After that an idle connection always exists.
	if got := newConns.Load(); got > workers+1 {
		t.Errorf("server saw %d new connections for %d calls from %d goroutines, want ≤ %d", got, workers*rounds*10, workers, workers+1)
	}
	if got, want := c.Dials(), newConns.Load(); got != want {
		t.Errorf("Client.Dials() = %d, server counted %d new connections", got, want)
	}
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
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
