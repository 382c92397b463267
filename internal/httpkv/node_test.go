package httpkv

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
)

// heldEngine parks every point read, single or batched, until release
// is closed, and says so on entered first.
type heldEngine struct {
	kvstore.Engine
	entered, release chan struct{}
}

func (e *heldEngine) Get(table, key string) (*kvstore.VersionedRecord, error) {
	e.entered <- struct{}{}
	<-e.release
	return e.Engine.Get(table, key)
}

func (e *heldEngine) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	e.entered <- struct{}{}
	<-e.release
	return e.Engine.BatchGet(reqs)
}

// Shutdown drains both listeners: an HTTP request and a request frame
// held inside the engine both complete, Shutdown returns before its
// deadline, and neither listener takes a new connection afterwards.
func TestNodeShutdownDrainsBothListeners(t *testing.T) {
	store := openTestStore(t)
	if _, err := store.Put("t", "k", map[string][]byte{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	eng := &heldEngine{Engine: store, entered: make(chan struct{}), release: make(chan struct{})}
	tn := listenNode(t)
	tn.serve(t, eng, NodeOptions{})
	reads := make(chan error, 2)
	for _, c := range []*Client{tn.client(t, WireModeOff), tn.client(t, WireModeAuto)} {
		go func() { _, err := c.Read(context.Background(), "t", "k", nil); reads <- err }()
		<-eng.entered
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- tn.node.Shutdown(ctx) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with two requests in the engine", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(eng.release)
	for i := 0; i < 2; i++ {
		if err := <-reads; err != nil {
			t.Errorf("read in flight at Shutdown: %v", err)
		}
	}
	if err := <-shut; err != nil || ctx.Err() != nil {
		t.Fatalf("Shutdown = %v (deadline: %v), want nil before the deadline", err, ctx.Err())
	}
	for _, addr := range []string{tn.httpLn.Addr().String(), tn.wireAddr} {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("dial %s after Shutdown succeeded", addr)
		}
	}
}

// The admin routes kvserver serves: stats count records per table,
// compaction shrinks a WAL-backed node's log, and migrate refuses what
// it cannot run.
func TestNodeAdminRoutes(t *testing.T) {
	wal, err := kvstore.Open(kvstore.Options{Path: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	tn := startNode(t, wal)
	for i := 0; i < 52; i++ {
		table, key := "a", "k" // 50 versions of one record, then two in b
		if i >= 50 {
			table, key = "b", fmt.Sprint(i)
		}
		if _, err := wal.Put(table, key, map[string][]byte{"f": []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := tn.hc.Get(tn.URL + "/admin/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(stats), "records{table=\"a\"} 1\nrecords{table=\"b\"} 2\n") {
		t.Errorf("GET /admin/stats: %q, %v; want a 1 and b 2", stats, err)
	}
	before, _ := wal.WALSize()
	if code := controlStatus(t, tn, http.MethodPost, "/admin/compact"); code != http.StatusOK {
		t.Fatalf("POST /admin/compact: %d", code)
	}
	if after, _ := wal.WALSize(); after >= before {
		t.Errorf("compaction left the log at %d bytes, was %d", after, before)
	}

	member := startTestCluster(t, 2, 8)[0]
	dest := "&dest=" + member.URL
	for _, c := range []struct {
		tn     *testNode
		method string
		target string
		want   int
	}{
		{tn, http.MethodGet, "/admin/compact", http.StatusMethodNotAllowed},
		{tn, http.MethodPost, "/admin/migrate?slot=0" + dest, http.StatusPreconditionFailed},
		{member, http.MethodPost, "/admin/migrate?slot=x" + dest, http.StatusBadRequest},
		{member, http.MethodPost, "/admin/migrate?slot=0", http.StatusBadRequest},
		{member, http.MethodGet, "/admin/migrate?slot=0" + dest, http.StatusMethodNotAllowed},
	} {
		if got := controlStatus(t, c.tn, c.method, c.target); got != c.want {
			t.Errorf("%s %s%s: %d, want %d", c.method, c.tn.URL, c.target, got, c.want)
		}
	}
}
