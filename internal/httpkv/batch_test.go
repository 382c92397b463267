package httpkv

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// slowEngine delays the engine's batched reads, which every request
// frame's gets become, so admission-control tests can hold a request
// in flight deterministically.
type slowEngine struct {
	kvstore.Engine
	delay   time.Duration
	entered chan struct{} // closed once the first batch starts
	once    sync.Once
}

func (e *slowEngine) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	e.once.Do(func() { close(e.entered) })
	time.Sleep(e.delay)
	return e.Engine.BatchGet(reqs)
}

// One sequence of mixed kinds, the same per-item answers on both
// transports: one request frame on a frame endpoint, answered
// positionally and in order, and one REST call per op on an HTTP
// endpoint, which has no batch route.
func TestBatchRoundTrip(t *testing.T) {
	bothTransports(t, func(t *testing.T, mode string) {
		ctx := context.Background()
		tn := startNode(t, nil)
		c := tn.client(t, mode)
		if _, err := tn.store.Put("t", "a", map[string][]byte{"f": []byte("v1"), "g": []byte("keep")}); err != nil {
			t.Fatal(err)
		}

		ops := []kvwire.Op{
			{Kind: kvwire.KindGet, Table: "t", Key: "a"},
			{Kind: kvwire.KindPut, Table: "t", Key: "b", Fields: rec("v2"), Expect: kvstore.AnyVersion},
			{Kind: kvwire.KindPatch, Table: "t", Key: "a", Fields: rec("v1b"), Expect: kvstore.AnyVersion},
			{Kind: kvwire.KindGet, Table: "t", Key: "missing"},
			{Kind: kvwire.KindPatch, Table: "t", Key: "nope", Fields: rec("x"), Expect: kvstore.AnyVersion},
			{Kind: kvwire.KindDelete, Table: "t", Key: "b", Expect: kvstore.AnyVersion},
		}
		errs := make([]error, len(ops))
		var read map[string][]byte // item 0's record
		if mode == WireModeAuto {
			res, err := c.exec(ctx, ops)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res {
				errs[i] = wireResultErr(res[i])
			}
			read = res[0].Fields
		} else {
			for i, op := range ops {
				if op.Kind != kvwire.KindGet {
					_, errs[i] = c.mutate(ctx, op.Kind, op.Table, op.Key, op.Fields, op.Expect)
				} else if r, err := c.get(ctx, op.Table, op.Key, 0); err != nil {
					errs[i] = err
				} else if i == 0 {
					read = r.Fields
				}
			}
		}
		if errs[0] != nil || string(read["f"]) != "v1" {
			t.Fatalf("item 0 (read): %v %v", read, errs[0])
		}
		for _, i := range []int{1, 2, 5} {
			if errs[i] != nil {
				t.Fatalf("write item %d: %v", i, errs[i])
			}
		}
		for _, i := range []int{3, 4} {
			if !errors.Is(errs[i], db.ErrNotFound) {
				t.Fatalf("item %d: got %v, want ErrNotFound", i, errs[i])
			}
		}
		// The interleaved order held: the update (item 2) ran after the
		// read (item 0), and the delete removed item 1's insert.
		got, err := tn.store.Get("t", "a")
		if err != nil || string(got.Field("f")) != "v1b" || string(got.Field("g")) != "keep" {
			t.Fatalf("after the sequence: %v %v", got, err)
		}
		if _, err := tn.store.Get("t", "b"); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("deleted key: %v", err)
		}
		// The sequence was one request frame, or no frame at all.
		want := int64(0)
		if mode == WireModeAuto {
			want = 1
		}
		if frames := tn.counter("kvwire_frames_total", "dir", "in"); frames != want {
			t.Fatalf("wire=%s: server read %d frames, want %d", mode, frames, want)
		}
	})
}

// A shed request frame (the wire-level 429 and its retry hint are
// asserted in kvwire's TestWireAdmissionShed) surfaces as ErrThrottled
// once the client's retries are spent.
func TestBatchAdmissionControl(t *testing.T) {
	eng := &slowEngine{Engine: kvstore.OpenMemory(), delay: 750 * time.Millisecond, entered: make(chan struct{})}
	defer eng.Close()
	tn := listenNode(t)
	tn.serve(t, eng, NodeOptions{MaxInflight: 1})
	// No re-sends: this test asserts the shed itself; retry has its own.
	c := tn.client(t, WireModeAuto)
	c.retries = 0

	first := make(chan error)
	go func() {
		_, err := c.Read(context.Background(), "t", "k", nil)
		first <- err
	}()
	<-eng.entered // the slow read now owns the one admission slot

	if _, err := c.Read(context.Background(), "t", "k", nil); !errors.Is(err, db.ErrThrottled) {
		t.Fatalf("second read: got %v, want ErrThrottled", err)
	}
	if err := <-first; !errors.Is(err, db.ErrNotFound) {
		t.Fatalf("first read: got %v, want ErrNotFound (empty store)", err)
	}
}

// A shed request frame is re-sent after the backoff and succeeds once
// the slot is free: the caller sees no error, only a later answer.
func TestBatchAdmissionRetrySucceeds(t *testing.T) {
	mem := kvstore.OpenMemory()
	if _, err := mem.Put("t", "k", map[string][]byte{"f": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	eng := &slowEngine{Engine: mem, delay: 200 * time.Millisecond, entered: make(chan struct{})}
	defer eng.Close()
	tn := listenNode(t)
	tn.serve(t, eng, NodeOptions{MaxInflight: 1})
	// The server hints 1s; the cap cuts the one backoff to 500ms, well
	// after the slow read has released the slot.
	c := tn.client(t, WireModeAuto)
	c.maxBackoff = 500 * time.Millisecond

	type answer struct {
		rec db.Record
		err error
	}
	read := func() answer {
		r, err := c.Read(context.Background(), "t", "k", nil)
		return answer{r, err}
	}
	first := make(chan answer)
	go func() { first <- read() }()
	<-eng.entered

	for i, a := range []answer{read(), <-first} {
		if a.err != nil || string(a.rec["f"]) != "v" {
			t.Fatalf("read %d: %+v", i, a)
		}
	}
	// First read, the shed one and its retry.
	if frames := tn.counter("kvwire_frames_total", "dir", "in"); frames != 3 {
		t.Fatalf("server read %d request frames, want 3", frames)
	}
}

// HTTP routes never shed, so the client does not retry a 429: it maps
// one straight to db.ErrThrottled.
func TestHTTP429IsThrottled(t *testing.T) {
	var requests atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "throttled", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	if err := c.Insert(context.Background(), "t", "k", rec("v")); !errors.Is(err, db.ErrThrottled) {
		t.Fatalf("got %v, want ErrThrottled", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("server saw %d requests, want 1", n)
	}
}

func TestServerRejectsMalformedAndOversized(t *testing.T) {
	tn := startHTTPNode(t, openTestStore(t), NodeOptions{})

	post := func(path, body string, hdr map[string]string, method string) int {
		req, _ := http.NewRequest(method, tn.URL+path, strings.NewReader(body))
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

	// Malformed JSON bodies → 400.
	if got := post("/v1/t/k", "{not json", nil, http.MethodPut); got != http.StatusBadRequest {
		t.Errorf("malformed put: %d, want 400", got)
	}
	// Missing fields → 400.
	if got := post("/v1/t/k", `{"version":1}`, nil, http.MethodPut); got != http.StatusBadRequest {
		t.Errorf("missing fields: %d, want 400", got)
	}
	// Unknown methods → 405; that is also all that is left of the batch
	// route, which exists on frames only, and of the ingest route, which
	// exists nowhere.
	if got := post("/v1/t/k", "", nil, http.MethodPost); got != http.StatusMethodNotAllowed {
		t.Errorf("POST on record: %d, want 405", got)
	}
	for _, gone := range []string{"batch", "ingest"} {
		if got := post("/v1/"+gone, `{"op":"get","table":"t","key":"k"}`, nil, http.MethodPost); got != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/%s: %d, want 405", gone, got)
		}
	}
	// Bodies over the 1 MiB cap → 413.
	big := `{"fields":{"f":"` + strings.Repeat("QUFB", 300_000) + `"}}`
	if got := post("/v1/t/k", big, nil, http.MethodPut); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized put: %d, want 413", got)
	}
	// Bad paths → 400, or some other refusal outside /v1/.
	if got := post("/v1/", "", nil, http.MethodGet); got != http.StatusBadRequest {
		t.Errorf("bad path: %d, want 400", got)
	}
	for _, p := range []string{"/nope", "/v1"} {
		if got := post(p, "", nil, http.MethodGet); got == http.StatusOK {
			t.Errorf("GET %s: 200, want a refusal", p)
		}
	}
	// A table takes only GET (its scan); If-Match must be a version.
	if got := post("/v1/t", "", nil, http.MethodDelete); got != http.StatusMethodNotAllowed {
		t.Errorf("DELETE on a table: %d, want 405", got)
	}
	if got := post("/v1/t/k", `{"fields":{"f":"dg=="}}`, map[string]string{"If-Match": "v1"}, http.MethodPut); got != http.StatusBadRequest {
		t.Errorf("bad If-Match: %d, want 400", got)
	}
	// A malformed deadline header is rejected outright.
	if got := post("/v1/t/a", "", map[string]string{DeadlineHeader: "soon"}, http.MethodGet); got != http.StatusBadRequest {
		t.Errorf("bad deadline header: status %d, want 400", got)
	}
}
