package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
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
	eng := &endlessEngine{Engine: openTestStore(t)}
	tn := listenNode(t)
	// Cluster mode with every slot on the other node: the scan filters
	// out each record it reads, so it pages on in search of its first.
	m, err := cluster.NewUniform(cluster.PlacementHash, 4, []string{tn.URL, "http://other"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Assign {
		m.Assign[i] = 1
	}
	tn.join(t, m, eng, NodeOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tn.URL+"/v1/t?start=&count=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := tn.hc.Do(req)
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

// brokenScanEngine fails every scan page after a scan's first while
// fail is set: a source whose reads give out mid-copy.
type brokenScanEngine struct {
	kvstore.Engine
	fail atomic.Bool
}

func (e *brokenScanEngine) Scan(table, start string, count int) ([]kvstore.VersionedKV, error) {
	if start != "" && e.fail.Load() {
		return nil, errors.New("read failed past the first page")
	}
	return e.Engine.Scan(table, start, count)
}

// A migration whose source scan fails after its first page aborts
// naming the table, with the slot thawed and every node's map where it
// was; the retry, once the source reads again, moves the slot.
func TestMigrateSlotSourceScanFails(t *testing.T) {
	aStore := openTestStore(t)
	broken := &brokenScanEngine{Engine: aStore}
	broken.fail.Store(true)
	a, b, m := startPair(t, broken, openTestStore(t))
	ctx := context.Background()
	hc := a.hc
	slot := m.SlotsOf(a.URL)[0]
	keys := loadSlot(t, aStore, m, slot, kvwire.ScanPageCap+100) // two engine pages

	_, err := MigrateSlot(ctx, hc, m, slot, b.URL)
	if err == nil || !strings.Contains(err.Error(), `"usertable"`) {
		t.Fatalf("migration over a failing source scan: %v, want an error naming the table", err)
	}
	if a.state.Frozen(slot) {
		t.Error("failed copy left the slot frozen")
	}
	for _, tn := range []*testNode{a, b} {
		if v := tn.state.Map().Version; v != m.Version {
			t.Errorf("%s moved to map v%d after a failed copy, want v%d", tn.URL, v, m.Version)
		}
	}

	broken.fail.Store(false)
	next, err := MigrateSlot(ctx, hc, m, slot, b.URL)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if next.OwnerOfSlot(slot) != b.URL {
		t.Fatalf("slot owner after retry = %s", next.OwnerOfSlot(slot))
	}
	cb := NewClient(b.URL, hc)
	for _, k := range []string{keys[0], keys[len(keys)-1]} {
		if got, err := cb.Read(ctx, "usertable", k, nil); err != nil || string(got["f"]) != "v-"+k {
			t.Fatalf("%s on the destination after retry: %v %v", k, got, err)
		}
	}
}

// A scan of a closed engine answers 503 on both planes, as a get does:
// the REST routes and the scan error frames take their statuses from one
// table (kvwire.ErrResult).
func TestScanOfClosedStoreAnswers503(t *testing.T) {
	store := openTestStore(t)
	tn := startNode(t, store)
	if _, err := store.Put("t", "k", map[string][]byte{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	store.Close()

	resp, err := http.Get(tn.URL + "/v1/t?start=&count=10")
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("HTTP scan of a closed store: status %d, want 503", resp.StatusCode)
	}

	ep := kvwire.NewEndpoint(tn.wireAddr, 1)
	defer ep.Close()
	s, err := ep.Scan(context.Background(), &kvwire.ScanRequest{Table: "t", Count: 10, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	for s.Next() {
	}
	var re *kvwire.RequestError
	if !errors.As(s.Err(), &re) || re.Status != http.StatusServiceUnavailable {
		t.Errorf("frame scan of a closed store: Err() = %v, want a 503 RequestError", s.Err())
	}
}
