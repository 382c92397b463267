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

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// newTestStore opens a fresh volatile engine.
func newTestStore(t *testing.T) kvstore.Engine {
	t.Helper()
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// loadKeys writes n ordered records k0000..k<n-1> into table t.
func loadKeys(t *testing.T, store kvstore.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		if _, err := store.PutIfVersion("t", key, map[string][]byte{"f": []byte(key)}, kvstore.AnyVersion); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamScanRoundTrip(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 1000)
	core := NewCore(store, nil, 0)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	for _, tc := range []struct {
		name  string
		req   ScanRequest
		first string
		n     int
	}{
		{"all", ScanRequest{Table: "t", Count: 1000, Slot: -1}, "k0000", 1000},
		{"limited", ScanRequest{Table: "t", Count: 7, Slot: -1}, "k0000", 7},
		{"offset", ScanRequest{Table: "t", Start: "k0500", Count: 10, Slot: -1}, "k0500", 10},
		{"pastEnd", ScanRequest{Table: "t", Start: "k0998", Count: 100, Slot: -1}, "k0998", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ep.Scan(context.Background(), &tc.req)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var got []string
			for s.Next() {
				rec := s.Record()
				if string(rec.View().Map()["f"]) != rec.Key {
					t.Fatalf("record %q carries fields %q", rec.Key, rec.View().Map()["f"])
				}
				if rec.Version == 0 {
					t.Fatalf("record %q missing version", rec.Key)
				}
				got = append(got, rec.Key)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.n {
				t.Fatalf("scanned %d records, want %d", len(got), tc.n)
			}
			if got[0] != tc.first {
				t.Fatalf("first key %q, want %q", got[0], tc.first)
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("out of order: %q after %q", got[i], got[i-1])
				}
			}
		})
	}
}

// blockingScans parks every engine scan until released, so a page can
// be held in flight.
type blockingScans struct {
	kvstore.Engine
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (e *blockingScans) Scan(table, start string, count int) ([]kvstore.VersionedKV, error) {
	e.once.Do(func() { close(e.entered) })
	<-e.release
	return e.Engine.Scan(table, start, count)
}

// TestStreamScanClientCancelReleasesServer cancels the consumer's
// context while its page is still being read: Next gives up at once
// with the context's error, and the server's handler, once its page is
// done, leaves nothing running.
func TestStreamScanClientCancelReleasesServer(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 2000)
	eng := &blockingScans{Engine: store, entered: make(chan struct{}), release: make(chan struct{})}
	srv, addr := startWireServer(t, NewCore(eng, nil, 0), ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := ep.Scan(ctx, &ScanRequest{Table: "t", Count: 2000, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	<-eng.entered
	cancel()
	if s.Next() {
		t.Fatal("Next succeeded after ctx cancel")
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}

	close(eng.release)
	if !answeredAll(srv) {
		t.Fatal("server scan handler still running after its page")
	}
}

// answeredAll waits up to 5 s for srv, which must have a metrics
// registry, to be answering no frame (kvwire_pipeline_depth 0).
func answeredAll(srv *Server) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if srv.metrics.pipeline.Value() == 0 {
			return true
		}
	}
	return false
}

// TestStreamIngestRoundTrip: StreamIngest fed from a slot scan stream —
// what a migration's destination runs against the source — lands every
// record of the slot at the source's version and commit ts, and counts
// them on the registry Instrument was given. A deleted key is not on
// the stream at all.
func TestStreamIngestRoundTrip(t *testing.T) {
	src := newTestStore(t)
	var recs []kvstore.BulkKV
	for i := 0; i < 700; i++ {
		recs = append(recs, kvstore.BulkKV{
			Key:      fmt.Sprintf("k%04d", i),
			Version:  uint64(i + 7),
			CommitTS: int64(1000 + i),
			Section:  kvstore.AppendFields(nil, map[string][]byte{"f": []byte(fmt.Sprintf("v%d", i))}),
		})
	}
	recs = append(recs, kvstore.BulkKV{Key: "kdead", Version: 9, CommitTS: 2000})
	if err := src.Ingest("t", recs); err != nil {
		t.Fatal(err)
	}
	if err := src.Delete("t", "kdead"); err != nil {
		t.Fatal(err)
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, 4, []string{"src"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const slot = 1
	inSlot := 0
	for _, r := range recs[:700] {
		if m.SlotOf(r.Key) == slot {
			inSlot++
		}
	}
	cs, err := cluster.NewState("src", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWireServer(t, NewCore(src, cs, 0), ServerOptions{})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()
	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Slot: slot, Count: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dst := newTestStore(t)
	core := NewCore(dst, nil, 0)
	reg := obs.NewRegistry()
	core.Instrument(reg)
	n, err := core.StreamIngest(context.Background(), "t", func() ([]kvstore.BulkKV, error) {
		var kvs []kvstore.BulkKV
		for len(kvs) < 100 && s.Next() {
			r := s.Record()
			kvs = append(kvs, kvstore.BulkKV{Key: r.Key, Section: r.Section(), Version: r.Version, CommitTS: r.CommitTS})
		}
		if kvs == nil {
			return nil, s.Err()
		}
		return kvs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(inSlot) || dst.Len("t") != inSlot {
		t.Fatalf("ingested %d records (Len %d), want the slot's %d", n, dst.Len("t"), inSlot)
	}
	if v := reg.Counter("kvwire_ingest_records_total").Value(); v != int64(inSlot) {
		t.Fatalf("kvwire_ingest_records_total = %d, want %d", v, inSlot)
	}

	// Versions and commit timestamps are preserved.
	for i, r := range recs[:700] {
		rec, err := dst.Get("t", r.Key)
		if m.SlotOf(r.Key) != slot {
			if !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("%s from another slot landed: %v", r.Key, err)
			}
			continue
		}
		if err != nil || rec.Version != uint64(i+7) || rec.CommitTS != int64(1000+i) || !bytes.Equal(rec.Image(), r.Section) {
			t.Fatalf("%s = %+v, %v; want v%d@%d", r.Key, rec, err, i+7, 1000+i)
		}
	}
	if _, err := dst.Get("t", "kdead"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key readable: %v", err)
	}
}

// expectHangUp writes one raw frame after the handshake and expects the
// server to count a decode error and close the connection, having
// stored nothing.
func expectHangUp(t *testing.T, frame []byte) {
	t.Helper()
	store := newTestStore(t)
	srv, addr := startWireServer(t, NewCore(store, nil, 0), ServerOptions{Metrics: obs.NewRegistry()})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(append([]byte(Magic), frame...)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server did not hang up: %v", err)
	}
	if n := srv.metrics.decodeErrs.Value(); n != 1 {
		t.Errorf("kvwire_decode_errors_total = %d, want 1", n)
	}
	if n := store.Len("t"); n != 0 {
		t.Errorf("%d records landed", n)
	}
}

// A type-8 frame — once an ingest request naming a table — is an
// unknown frame.
func TestServerRefusesFrameType8(t *testing.T) {
	expectHangUp(t, finishFrame(appendBytes(appendFrameHeader(nil, 8, 1), "t"), 0))
}

// A page frame sent to the server is an unknown frame too: no scan
// takes records from a client.
func TestServerRefusesClientChunk(t *testing.T) {
	expectHangUp(t, appendPage(nil, 1, []StreamRecord{{Key: "k", Version: 1, CommitTS: 1, Fields: map[string][]byte{"f": []byte("v")}}}, 0, ""))
}

// Types 6 and 7 — once a stream's end and a consumer's credit grant —
// are unknown frames to the server.
func TestServerRefusesFrameTypes6And7(t *testing.T) {
	for _, typ := range []byte{6, 7} {
		expectHangUp(t, finishFrame(append(appendFrameHeader(nil, typ, 1), 1), 0))
	}
}

// scriptedPeer accepts one connection, answers the handshake with echo,
// and then hands the connection to script.
func scriptedPeer(t *testing.T, echo string, script func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		var magic [len(Magic)]byte
		if _, err := io.ReadFull(conn, magic[:]); err != nil {
			return
		}
		if _, err := conn.Write([]byte(echo)); err != nil {
			return
		}
		script(conn)
	}()
	return ln.Addr().String()
}

// A stream-end or credit frame reaching the client is an unknown frame
// there too: the connection fails, and with it the request waiting on it.
func TestClientRefusesFrameTypes6And7(t *testing.T) {
	for _, typ := range []byte{6, 7} {
		addr := scriptedPeer(t, Magic, func(conn net.Conn) {
			_, id, _, err := ReadFrame(conn, nil)
			if err == nil {
				conn.Write(finishFrame(append(appendFrameHeader(nil, typ, id), 1), 0))
				io.Copy(io.Discard, conn)
			}
		})
		ep := NewEndpoint(addr, 1)
		_, err := ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}})
		if err == nil || !strings.Contains(err.Error(), "unexpected frame type") {
			t.Errorf("frame type %d answering a request: err = %v, want the connection failed", typ, err)
		}
		ep.Close()
	}
}

// An older peer — version 2, or version 3 with its as-of sections —
// fails the handshake, in either direction: a client that meets its
// echo reports ErrUnavailable (nothing was sent), and the server hangs
// up on such a client without echoing.
func TestKVW2HandshakeRefused(t *testing.T) {
	for _, old := range []string{"KVW2", "KVW3"} {
		ep := NewEndpoint(scriptedPeer(t, old, func(net.Conn) {}), 1)
		_, err := ep.Exec(context.Background(), []Op{{Kind: KindGet, Table: "t", Key: "k"}})
		ep.Close()
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("client against a %s server: err = %v, want ErrUnavailable", old, err)
		}

		srv, addr := startWireServer(t, newTestCore(t), ServerOptions{Metrics: obs.NewRegistry()})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(old)); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || len(got) != 0 {
			t.Fatalf("server answered a %s client with %q, %v; want a hang-up", old, got, err)
		}
		if n := srv.metrics.decodeErrs.Value(); n != 1 {
			t.Errorf("%s: kvwire_decode_errors_total = %d, want 1", old, n)
		}
	}
}

func TestStreamScanRejectsBadParams(t *testing.T) {
	store := newTestStore(t)
	core := NewCore(store, nil, 0)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	for _, req := range []ScanRequest{
		{Table: "t", Count: -2, Slot: -1}, // no count below -1
		{Table: "t", Count: 10, Slot: 3},  // slot filter is cluster-only
	} {
		s, err := ep.Scan(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		for s.Next() {
		}
		var re *RequestError
		if err := s.Err(); !errors.As(err, &re) || re.Status != 400 {
			t.Fatalf("req %+v: Err() = %v, want 400 RequestError", req, s.Err())
		}
		s.Close()
	}
}
