package httpkv

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
)

// endlessEngine serves an infinite ascending key space: every Scan
// page is full, so a scan that keeps none of it never ends. The page
// counter is how the test observes whether the handler's paging loop
// is still running.
type endlessEngine struct {
	kvstore.Engine
	scans atomic.Int32
}

func (e *endlessEngine) Scan(table, start string, count int) ([]kvstore.VersionedKV, error) {
	e.scans.Add(1)
	out := make([]kvstore.VersionedKV, count)
	for i := range out {
		out[i] = kvstore.VersionedKV{
			Key:    fmt.Sprintf("%s.%06d", start, i),
			Record: &kvstore.VersionedRecord{Version: 1, Fields: map[string][]byte{"f": []byte("v")}},
		}
	}
	return out, nil
}

// A scan whose client has gone away must stop paging the engine: the
// handler passes the request context into Core.Scan, which checks it
// between pages. Regression test for the handler paging on for nobody
// after the consumer disconnected.
func TestScanHandlerStopsWhenClientDisconnects(t *testing.T) {
	store, err := kvstore.Open(kvstore.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := &endlessEngine{Engine: store}

	var h atomic.Pointer[Server]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()
	// Cluster mode with every slot on the other node: the scan filters
	// out each record it reads, so it pages on in search of its first.
	m, err := cluster.NewUniform(cluster.PlacementHash, 4, []string{srv.URL, "http://other"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Assign {
		m.Assign[i] = 1
	}
	st, err := cluster.NewState(srv.URL, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.Store(NewServerWithOptions(eng, ServerOptions{Cluster: st}))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/t?start=&count=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Let the paging loop demonstrably run, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for eng.scans.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("scan never started paging")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded against an endless table")
	}
	// The handler may finish the page in flight; after that the counter
	// must stop moving. Without the ctx check it pages forever.
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); {
		n1 := eng.scans.Load()
		time.Sleep(150 * time.Millisecond)
		if eng.scans.Load() == n1 {
			return // paging stopped
		}
	}
	t.Fatalf("handler still paging the engine %v after client disconnect (%d pages)",
		5*time.Second, eng.scans.Load())
}
