package kvwire

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// stalledEngine parks every get and scan until released, so a reply
// can be made never to come.
type stalledEngine struct {
	kvstore.Engine
	release chan struct{}
}

func (e *stalledEngine) BatchGet(reqs []kvstore.GetReq) []kvstore.GetResult {
	<-e.release
	return e.Engine.BatchGet(reqs)
}

func (e *stalledEngine) Scan(table, start string, count int) ([]kvstore.VersionedKV, error) {
	<-e.release
	return e.Engine.Scan(table, start, count)
}

// A request owns its connection until its reply arrives, so a reply
// that never comes must not hold the caller: ctx's end interrupts the
// read, for an Exec and for a scan page alike. Neither connection is
// pooled again: once the engine lets go, the server sees both closed,
// and the next Exec dials a fresh one.
func TestReplyThatNeverComes(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 10)
	eng := &stalledEngine{Engine: store, release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(eng.release) }) }
	defer release()
	srv, addr := startWireServer(t, NewCore(eng, nil, 0), ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()
	get := []Op{{Kind: KindGet, Table: "t", Key: "k0001"}}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := ep.Exec(ctx, get); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Exec against a stalled engine: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Exec with a 50ms deadline took %v", d)
	}

	sctx, scancel := context.WithCancel(context.Background())
	s, err := ep.Scan(sctx, &ScanRequest{Table: "t", Count: 10, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, scancel)
	if s.Next() {
		t.Fatal("a page arrived from a stalled engine")
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("scan cancelled mid-page: Err() = %v, want context.Canceled", err)
	}
	s.Close()

	release()
	waitFor(t, "the interrupted connections were never closed", func() bool { return srv.metrics.connsOpen.Value() == 0 })
	res, err := ep.Exec(context.Background(), get)
	if err != nil || len(res) != 1 || res[0].Status != 200 {
		t.Fatalf("Exec after the engine let go = %+v, %v", res, err)
	}
	if open, accepted := srv.metrics.connsOpen.Value(), srv.metrics.accepted.Value(); open != 1 || accepted != 3 {
		t.Fatalf("%d connections open of %d accepted; want the fresh one open of 3", open, accepted)
	}
}

// An idle connection whose server went away and came back on the same
// address costs a redial, not a failed call.
func TestExecAfterServerRestart(t *testing.T) {
	core := newTestCore(t)
	srv, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()
	put := []Op{{Kind: KindPut, Table: "t", Key: "k", Fields: map[string][]byte{"f": []byte("v")}, Expect: kvstore.AnyVersion}}
	if _, err := ep.Exec(context.Background(), put); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // a restart is not instant
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	restarted := NewServer(core, ServerOptions{})
	go restarted.Serve(ln)
	defer restarted.Close()

	res, err := ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}})
	if err != nil || len(res) != 1 || string(res[0].Fields["f"]) != "v" {
		t.Fatalf("Exec after the restart = %+v, %v", res, err)
	}
}

// Close fails an Exec whose reply has not come yet, promptly.
func TestCloseFailsExecInFlight(t *testing.T) {
	store := newTestStore(t)
	eng := &stalledEngine{Engine: store, release: make(chan struct{})}
	defer close(eng.release)
	_, addr := startWireServer(t, NewCore(eng, nil, 0), ServerOptions{})
	ep := NewEndpoint(addr, 0)

	done := make(chan error, 1)
	go func() {
		_, err := ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the engine
	ep.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Exec in flight succeeded across Close")
		}
	case <-time.After(time.Second):
		t.Fatal("Exec in flight still waiting 1s after Close")
	}
}

// The server answers a connection's frames in the order they came:
// a slow get pipelined ahead of a fast scan is answered first.
func TestServerAnswersPipelinedFramesInOrder(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 10)
	_, addr := startWireServer(t, NewCore(&slowGets{Engine: store, delay: 50 * time.Millisecond}, nil, 0), ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	frames := AppendRequest([]byte(Magic), 1, 0, []Op{{Kind: KindGet, Table: "t", Key: "k0001"}})
	frames = AppendScanRequest(frames, 2, &ScanRequest{Table: "t", Count: 3, Slot: -1})
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	var echo [len(Magic)]byte
	if _, err := io.ReadFull(conn, echo[:]); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		typ byte
		id  uint64
	}{{frameResponse, 1}, {framePage, 2}} {
		typ, id, _, err := ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ != want.typ || id != want.id {
			t.Fatalf("frame type %d id %d, want type %d id %d", typ, id, want.typ, want.id)
		}
	}
}
