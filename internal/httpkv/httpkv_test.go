package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/properties"
)

func newPair(t *testing.T) (*kvstore.Store, *Client) {
	t.Helper()
	tn := startHTTPNode(t, openTestStore(t), NodeOptions{})
	client := NewClient(tn.URL, tn.hc)
	if err := client.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	return tn.store, client
}

func TestHTTPCRUDRoundTrip(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)

	if err := c.Insert(ctx, "usertable", "user1", db.Record{"field0": []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Read(ctx, "usertable", "user1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec["field0"]) != "hello" {
		t.Errorf("Read = %v", rec)
	}
	if err := c.Update(ctx, "usertable", "user1", db.Record{"field1": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	rec, _ = c.Read(ctx, "usertable", "user1", nil)
	if string(rec["field0"]) != "hello" || string(rec["field1"]) != "x" {
		t.Errorf("merged = %v", rec)
	}
	// Field projection.
	rec, _ = c.Read(ctx, "usertable", "user1", []string{"field1"})
	if len(rec) != 1 || string(rec["field1"]) != "x" {
		t.Errorf("projection = %v", rec)
	}
	if err := c.Delete(ctx, "usertable", "user1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "usertable", "user1", nil); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("Read deleted = %v", err)
	}
	if err := c.Update(ctx, "usertable", "user1", db.Record{"f": []byte("v")}); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("Update missing = %v", err)
	}
	if err := c.Delete(ctx, "usertable", "user1"); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("Delete missing = %v", err)
	}
	if err := c.Cleanup(); err != nil {
		t.Fatal(err)
	}
}

// Insert and Update with nil values write an empty record, over REST
// as over frames: the REST body carries an empty fields object.
func TestNilValuesWriteAnEmptyRecord(t *testing.T) {
	bothTransports(t, func(t *testing.T, mode string) {
		ctx := context.Background()
		c := startNode(t, nil).client(t, mode)
		if err := c.Insert(ctx, "t", "k", nil); err != nil {
			t.Fatalf("Insert(nil) = %v", err)
		}
		if rec, err := c.Read(ctx, "t", "k", nil); err != nil || len(rec) != 0 {
			t.Fatalf("read after Insert(nil) = %v, %v; want an empty record", rec, err)
		}
		if err := c.Update(ctx, "t", "k", nil); err != nil {
			t.Fatalf("Update(nil) = %v", err)
		}
		if rec, err := c.Read(ctx, "t", "k", nil); err != nil || len(rec) != 0 {
			t.Fatalf("read after Update(nil) = %v, %v; want an empty record", rec, err)
		}
	})
}

func TestHTTPConditionalPut(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)

	if err := c.PutIfVersion(ctx, "t", "k", db.Record{"f": []byte("a")}, kvstore.MustNotExist); err != nil {
		t.Fatal(err)
	}
	if err := c.PutIfVersion(ctx, "t", "k", db.Record{"f": []byte("b")}, kvstore.MustNotExist); !errors.Is(err, db.ErrConflict) {
		t.Errorf("create-only on existing = %v", err)
	}
	if err := c.PutIfVersion(ctx, "t", "k", db.Record{"f": []byte("b")}, 99); !errors.Is(err, db.ErrConflict) {
		t.Errorf("stale CAS = %v", err)
	}
	if err := c.PutIfVersion(ctx, "t", "k", db.Record{"f": []byte("b")}, 1); err != nil {
		t.Errorf("CAS v1 = %v", err)
	}
	vr, err := c.ReadVersioned(ctx, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if vr.Version != 2 || string(vr.Fields["f"]) != "b" {
		t.Errorf("versioned read = %+v", vr)
	}
}

// TestHTTPServerDirect drives an HTTP-only node's routes by hand: its
// health endpoint and its refusal of bad paths, methods, headers,
// bodies and scan counts.
func TestHTTPServerDirect(t *testing.T) {
	tn := startHTTPNode(t, openTestStore(t), NodeOptions{})
	do := func(method, path, body string, hdr map[string]string) int {
		t.Helper()
		req, err := http.NewRequest(method, tn.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := tn.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := do(http.MethodGet, "/healthz", "", nil); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	for _, p := range []string{"/v1/", "/nope", "/v1"} {
		if got := do(http.MethodGet, p, "", nil); got == http.StatusOK {
			t.Errorf("GET %s = %d, want error", p, got)
		}
	}
	if got := do(http.MethodDelete, "/v1/tbl", "", nil); got != http.StatusMethodNotAllowed {
		t.Errorf("DELETE table = %d", got)
	}
	if got := do(http.MethodPut, "/v1/t/k", `{"fields":{"f":"dg=="}}`, map[string]string{"If-Match": "not-a-number"}); got != http.StatusBadRequest {
		t.Errorf("bad If-Match = %d", got)
	}
	if got := do(http.MethodPut, "/v1/t/k", `{garbage`, nil); got != http.StatusBadRequest {
		t.Errorf("bad body = %d", got)
	}
	if got := do(http.MethodGet, "/v1/t?count=-3", "", nil); got != http.StatusBadRequest {
		t.Errorf("bad count = %d", got)
	}
}

func TestHTTPKeysWithSpecialCharacters(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)
	key := "weird/key with spaces?&#"
	if err := c.Insert(ctx, "t", key, db.Record{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Read(ctx, "t", key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec["f"]) != "v" {
		t.Errorf("special-char key round trip = %v", rec)
	}
}

func TestHTTPConcurrentClients(t *testing.T) {
	ctx := context.Background()
	store, c := newPair(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d-%d", w, i)
				if err := c.Insert(ctx, "t", key, db.Record{"f": []byte("v")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if store.Len("t") != 8*50 {
		t.Errorf("store has %d records", store.Len("t"))
	}
}

func TestLostUpdateAnomalyThroughHTTP(t *testing.T) {
	// The raw HTTP interface has no transactions: two clients doing
	// read-modify-write on the same counter lose updates. This is the
	// precise mechanism behind Figure 4 of the paper.
	ctx := context.Background()
	_, c := newPair(t)
	if err := c.Insert(ctx, "t", "ctr", db.Record{"n": []byte("0")}); err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec, err := c.Read(ctx, "t", "ctr", nil)
				if err != nil {
					t.Error(err)
					return
				}
				var n int
				fmt.Sscanf(string(rec["n"]), "%d", &n)
				if err := c.Update(ctx, "t", "ctr", db.Record{"n": []byte(fmt.Sprint(n + 1))}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rec, _ := c.Read(ctx, "t", "ctr", nil)
	var final int
	fmt.Sscanf(string(rec["n"]), "%d", &final)
	if final > workers*per {
		t.Errorf("counter overshot: %d", final)
	}
	t.Logf("non-transactional RMW preserved %d of %d increments (lost %d)",
		final, workers*per, workers*per-final)
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		path       string
		table, key string
		hasKey, ok bool
	}{
		{"/v1/t/k", "t", "k", true, true},
		{"/v1/t", "t", "", false, true},
		{"/v1/t/", "t", "", false, true},
		{"/v1/t/k/with/slashes", "t", "k/with/slashes", true, true},
		{"/v1/", "", "", false, false},
		{"/other", "", "", false, false},
	}
	for _, c := range cases {
		table, key, hasKey, ok := splitPath(c.path)
		if table != c.table || key != c.key || hasKey != c.hasKey || ok != c.ok {
			t.Errorf("splitPath(%q) = %q,%q,%v,%v", c.path, table, key, hasKey, ok)
		}
	}
}
