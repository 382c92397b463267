package httpkv

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// TestConcurrentMetricsScrape is the end-to-end observability check:
// the kvserver stack (engine under the HTTP server, both instrumented
// into one registry) takes concurrent client traffic while /metrics is
// scraped in parallel. Under -race this is the cross-layer
// thread-safety proof; the series assertions mirror the smoke test CI
// runs against a live kvserver.
func TestConcurrentMetricsScrape(t *testing.T) {
	reg := obs.NewRegistry()
	eng, err := kvstore.Open(kvstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// A second engine instrumented into the same registry proves the
	// per-shard handles from several engines merge safely at scrape.
	plain, err := kvstore.Open(kvstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Put("warm", "k", map[string][]byte{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}

	tn := startHTTPNode(t, eng, NodeOptions{Metrics: reg})
	ops := httptest.NewServer(obs.NewOpsMux(reg, nil))
	defer ops.Close()

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(tn.URL, tn.hc)
			ctx := context.Background()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := c.Insert(ctx, "usertable", key, db.Record{"f": []byte("v")}); err != nil {
					t.Errorf("insert %s: %v", key, err)
					return
				}
				if _, err := c.Read(ctx, "usertable", key, nil); err != nil {
					t.Errorf("read %s: %v", key, err)
					return
				}
			}
		}(w)
	}

	// Scrape concurrently with the traffic.
	var lastBody string
	for s := 0; s < 10; s++ {
		resp, err := http.Get(ops.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d: %s", s, resp.Status)
		}
		lastBody = string(body)
	}
	wg.Wait()

	// A final scrape must expose both layers, engine and HTTP server —
	// the kvserver acceptance criterion.
	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lastBody = string(body)
	for _, want := range []string{
		"kvstore_ops_total",
		"httpkv_responses_total",
		"httpkv_inflight_requests",
	} {
		if !strings.Contains(lastBody, want) {
			t.Errorf("final scrape missing %s series:\n%.400s", want, lastBody)
		}
	}
	if !strings.Contains(lastBody, `httpkv_responses_total{code="200"}`) {
		t.Errorf("no 200 responses counted:\n%.400s", lastBody)
	}
}
