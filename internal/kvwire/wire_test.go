package kvwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// startWireServer boots a Server over a fresh volatile store and
// returns its dial address plus the pieces tests poke at.
func startWireServer(t testing.TB, core *Core, opts ServerOptions) (*Server, string) {
	t.Helper()
	srv := NewServer(core, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func newTestCore(t testing.TB) *Core {
	t.Helper()
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return NewCore(store, nil, 0)
}

func TestWireExecRoundTrip(t *testing.T) {
	core := newTestCore(t)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()
	ctx := context.Background()

	res, err := ep.Exec(ctx, []Op{
		{Kind: KindPut, Table: "t", Key: "a", Fields: map[string][]byte{"f": []byte("1")}, Expect: kvstore.AnyVersion},
		{Kind: KindPut, Table: "t", Key: "b", Fields: map[string][]byte{"f": []byte("2")}, Expect: kvstore.MustNotExist},
		{Kind: KindGet, Table: "t", Key: "a"},
		{Kind: KindGet, Table: "t", Key: "missing"},
		{Kind: KindDelete, Table: "t", Key: "b", Expect: kvstore.AnyVersion},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{200, 200, 200, 404, 204}
	for i, st := range want {
		if res[i].Status != st {
			t.Errorf("res[%d].Status = %d, want %d (%+v)", i, res[i].Status, st, res[i])
		}
	}
	if string(res[2].Fields["f"]) != "1" {
		t.Errorf("get returned %q", res[2].Fields["f"])
	}
	if !res[0].HasVersion || res[0].Version == 0 {
		t.Errorf("put result missing version: %+v", res[0])
	}

	// Create-only against an existing key must 412.
	res, err = ep.Exec(ctx, []Op{{Kind: KindPut, Table: "t", Key: "a", Fields: map[string][]byte{"f": []byte("x")}, Expect: kvstore.MustNotExist}})
	if err != nil || res[0].Status != 412 {
		t.Fatalf("create-only overwrite: res=%+v err=%v", res, err)
	}
}

// Per-item conditionals inside one request frame: create-only and
// exact-version CAS each answer their own status, the versions the
// frame reports are the ones the engine assigned, and an item the
// server cannot run answers 400 without disturbing its neighbours.
func TestWireBatchConditionals(t *testing.T) {
	core := newTestCore(t)
	reg := obs.NewRegistry()
	core.Instrument(reg)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()
	f := func(v string) map[string][]byte { return map[string][]byte{"f": []byte(v)} }
	if res := core.ExecBatch(context.Background(), []Op{{Kind: KindPut, Table: "t", Key: "a", Fields: f("v"), Expect: kvstore.MustNotExist}}); res[0].Status != 200 {
		t.Fatalf("seed put: %+v", res[0])
	}

	res, err := ep.Exec(context.Background(), []Op{
		{Kind: KindPut, Table: "t", Key: "a", Fields: f("x"), Expect: kvstore.MustNotExist}, // exists
		{Kind: KindPut, Table: "t", Key: "a", Fields: f("x"), Expect: 1},                    // CAS on v1
		{Kind: KindGet, Table: "t", Key: "a"},
		{Kind: KindDelete, Table: "t", Key: "a", Expect: 999},             // stale
		{Kind: KindPut, Table: "t", Key: "b", Expect: kvstore.AnyVersion}, // no fields
		{Kind: KindPatch, Table: "t", Key: "a", Fields: f("y")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{412, 200, 200, 412, 400, 200} {
		if res[i].Status != want {
			t.Errorf("item %d: status %d, want %d (%s)", i, res[i].Status, want, res[i].Err)
		}
	}
	if res[1].Version != 2 || res[2].Version != 2 || res[5].Version != 3 {
		t.Errorf("versions %d %d %d, want 2 2 3", res[1].Version, res[2].Version, res[5].Version)
	}
	if string(res[2].Fields["f"]) != "x" {
		t.Errorf("get fields %v", res[2].Fields)
	}
	// The only batch path is observable: one batch of six items.
	var out strings.Builder
	if err := reg.Export(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "httpkv_batch_items_count 1") || !strings.Contains(out.String(), "httpkv_batch_items_sum 6") {
		t.Errorf("httpkv_batch_items did not record one batch of 6:\n%s", out.String())
	}
}

// slowGets delays every get, a run of one (Get) or more (BatchGet), so
// a frame's deadline can expire between its runs.
type slowGets struct {
	kvstore.Engine
	delay time.Duration
}

func (e *slowGets) Get(table, key string) (*kvstore.VersionedRecord, error) {
	time.Sleep(e.delay)
	return e.Engine.Get(table, key)
}

func (e *slowGets) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	time.Sleep(e.delay)
	return e.Engine.BatchGet(reqs)
}

// A request frame carries its sender's deadline. Two runs split by a
// mutation: the first run eats the deadline, the rest must report 504
// per item instead of running. Written as a raw frame — Endpoint.Exec
// would give up at the same deadline and never see the answer.
func TestWireDeadlineExpiredRemainder(t *testing.T) {
	store := newTestStore(t)
	core := NewCore(&slowGets{Engine: store, delay: 100 * time.Millisecond}, nil, 0)
	_, addr := startWireServer(t, core, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := AppendRequest([]byte(Magic), 1, 30, []Op{
		{Kind: KindGet, Table: "t", Key: "a"},
		{Kind: KindPut, Table: "t", Key: "b", Fields: map[string][]byte{"f": []byte("x")}, Expect: kvstore.AnyVersion},
	})
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	var echo [len(Magic)]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResponse(payload, nil)
	if err != nil || len(res) != 2 {
		t.Fatalf("response = %+v, %v", res, err)
	}
	if res[0].Status != 404 {
		t.Errorf("item 0 ran before the deadline: status %d, want 404", res[0].Status)
	}
	if res[1].Status != 504 {
		t.Errorf("item 1: status %d, want 504", res[1].Status)
	}
	if _, err := store.Get("t", "b"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("abandoned put landed: %v", err)
	}
}

// Whole-frame rejections: an empty batch answers a 400 error frame; a
// batch over MaxOpsPerFrame or bytes that are not a request are a
// protocol violation — counted, and the connection closed, with
// nothing executed.
func TestWireRejectsEmptyOversizedAndMalformedBatch(t *testing.T) {
	store := newTestStore(t)
	srv, addr := startWireServer(t, NewCore(store, nil, 0), ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()
	ctx := context.Background()

	_, err := ep.Exec(ctx, nil)
	var re *RequestError
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("empty batch: err=%v, want 400 RequestError", err)
	}
	big := make([]Op, MaxOpsPerFrame+1)
	for i := range big {
		big[i] = Op{Kind: KindPut, Table: "t", Key: fmt.Sprintf("k%d", i), Fields: map[string][]byte{"f": []byte("v")}, Expect: kvstore.AnyVersion}
	}
	if _, err := ep.Exec(ctx, big); err == nil || errors.As(err, &re) {
		t.Fatalf("oversized batch: err=%v, want a dropped connection", err)
	}
	if n := store.Len("t"); n != 0 {
		t.Fatalf("oversized batch executed: %d records landed", n)
	}
	// A request frame whose payload is garbage, written raw.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	good := AppendRequest(nil, 1, 0, []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	bad := append([]byte(Magic), good[:frameHeaderLen]...)
	bad = append(bad, bytes.Repeat([]byte{0xff}, len(good)-frameHeaderLen)...)
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server did not hang up on a malformed frame: %v", err)
	}
	if n := srv.metrics.decodeErrs.Value(); n != 2 {
		t.Errorf("kvwire_decode_errors_total = %d, want 2", n)
	}
}

// Concurrent Execs on one endpoint each own a connection from write to
// reply, so none can take another's response; with one idle connection
// kept, the requests past it dial their own and close them after.
func TestWirePipelinedConcurrentExecs(t *testing.T) {
	core := newTestCore(t)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i%26))
			res, err := ep.Exec(context.Background(), []Op{
				{Kind: KindPut, Table: "t", Key: key, Fields: map[string][]byte{"f": []byte(key)}, Expect: kvstore.AnyVersion},
				{Kind: KindGet, Table: "t", Key: key},
			})
			if err != nil {
				errs <- err
				return
			}
			if res[0].Status != 200 || res[1].Status != 200 {
				errs <- errors.New("bad statuses")
				return
			}
			if string(res[1].Fields["f"]) != key {
				errs <- errors.New("cross-matched response: wrong field value")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// blockingEngine parks BatchApply until released, so tests can hold a
// request in flight deterministically.
type blockingEngine struct {
	kvstore.Engine
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (e *blockingEngine) BatchApply(muts []kvstore.Mutation) []kvstore.MutResult {
	e.once.Do(func() { close(e.entered) })
	<-e.release
	return e.Engine.BatchApply(muts)
}

func TestWireShutdownDrainsInflightPipelinedRequest(t *testing.T) {
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := &blockingEngine{Engine: store, entered: make(chan struct{}), release: make(chan struct{})}
	core := NewCore(eng, nil, 0)
	srv, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	// Park one mutation in the engine, pipelined behind nothing.
	execDone := make(chan error, 1)
	var res []Result
	go func() {
		var err error
		res, err = ep.Exec(context.Background(), []Op{
			{Kind: KindPut, Table: "t", Key: "k", Fields: map[string][]byte{"f": []byte("v")}, Expect: kvstore.AnyVersion},
		})
		execDone <- err
	}()
	<-eng.entered

	// Shutdown with the request still in flight: it must not return
	// until the handler has written its response.
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Give shutdown a moment to close the read side, then release the
	// engine so the handler can finish.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-shutDone:
		t.Fatal("Shutdown returned while a request was still in flight")
	default:
	}
	close(eng.release)

	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-execDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if len(res) != 1 || res[0].Status != 200 {
		t.Fatalf("in-flight request answered %+v", res)
	}

	// The endpoint's connection is now closed; a new request fails.
	if _, err := ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}}); err == nil {
		t.Fatal("request succeeded against a shut-down server")
	}
}

func TestWireAdmissionShed(t *testing.T) {
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := &blockingEngine{Engine: store, entered: make(chan struct{}), release: make(chan struct{})}
	defer close(eng.release)
	core := NewCore(eng, nil, 1)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	go ep.Exec(context.Background(), []Op{
		{Kind: KindPut, Table: "t", Key: "k", Fields: map[string][]byte{"f": []byte("v")}, Expect: kvstore.AnyVersion},
	})
	<-eng.entered

	_, err = ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	var re *RequestError
	if !errors.As(err, &re) || re.Status != 429 {
		t.Fatalf("err=%v, want 429 RequestError", err)
	}
	if re.RetryAfter != shedRetryAfter {
		t.Fatalf("RetryAfter=%v, want %v", re.RetryAfter, shedRetryAfter)
	}
}

func TestWireDialUnavailable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here now
	ep := NewEndpoint(addr, 0)
	defer ep.Close()
	_, err = ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err=%v, want ErrUnavailable", err)
	}
}
