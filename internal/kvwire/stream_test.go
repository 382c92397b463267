package kvwire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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
				if string(rec.Fields["f"]) != rec.Key {
					t.Fatalf("record %q carries fields %q", rec.Key, rec.Fields["f"])
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

// TestStreamScanSlowConsumerBounded proves the credit window bounds
// the server: a consumer that grants window=2 and then stops consuming
// sees exactly 2 chunk frames, with the producer parked (stall counter
// moving), until credits flow again.
func TestStreamScanSlowConsumerBounded(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 2000) // ≥ 7 chunks of 256
	core := NewCore(store, nil, 0)
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: 2000, Slot: -1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Without consuming anything, the server may send exactly the
	// granted window and must then stall.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.scanChunks.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server sent %d chunks, want 2", srv.metrics.scanChunks.Value())
		}
		time.Sleep(time.Millisecond)
	}
	for srv.metrics.creditsStalled.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never recorded a credit stall")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := srv.metrics.scanChunks.Value(); n != 2 {
		t.Fatalf("stalled server sent %d chunks, want exactly the window of 2", n)
	}

	// Resume consuming: the rest of the stream arrives.
	n := 0
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("scanned %d records after stall, want 2000", n)
	}
}

// TestStreamScanClientCancelReleasesServer cancels the consumer's
// context while the producer is parked on credits and asserts the
// server goroutine exits.
func TestStreamScanClientCancelReleasesServer(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 2000)
	core := NewCore(store, nil, 0)
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := ep.Scan(ctx, &ScanRequest{Table: "t", Count: 2000, Slot: -1, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Park the producer: one chunk sent, no credits coming.
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.creditsStalled.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("producer never stalled")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	if s.Next() {
		t.Fatal("Next succeeded after ctx cancel")
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}

	// The cancel frame must release the parked producer goroutine.
	done := make(chan struct{})
	go func() {
		srv.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server scan goroutine still running after client cancel")
	}
}

// TestStreamIngestRoundTrip: StreamIngest fed from a tombstone scan
// stream — what a migration's destination runs against the source —
// lands every record at the source's version and commit ts, tombstones
// as deletes, and counts them on the registry Instrument was given.
func TestStreamIngestRoundTrip(t *testing.T) {
	src := newTestStore(t)
	var recs []kvstore.BulkKV
	for i := 0; i < 700; i++ {
		recs = append(recs, kvstore.BulkKV{
			Key:      fmt.Sprintf("k%04d", i),
			Version:  uint64(i + 7),
			CommitTS: int64(1000 + i),
			Fields:   map[string][]byte{"f": []byte(fmt.Sprintf("v%d", i))},
		})
	}
	recs = append(recs, kvstore.BulkKV{Key: "kdead", Version: 9, CommitTS: 2000, Deleted: true})
	if err := src.Ingest("t", recs); err != nil {
		t.Fatal(err)
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, 4, []string{"src"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cluster.NewState("src", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startWireServer(t, NewCore(src, cs, 0), ServerOptions{})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()
	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: -1, AsOf: src.SnapshotTS(), Slot: -1, Tombstones: true})
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
			kvs = append(kvs, kvstore.BulkKV{Key: r.Key, Fields: r.Fields, Version: r.Version, CommitTS: r.CommitTS, Deleted: r.Deleted})
		}
		if kvs == nil {
			return nil, s.Err()
		}
		return kvs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 701 {
		t.Fatalf("ingested %d records, want 701", n)
	}
	if v := reg.Counter("kvwire_ingest_records_total").Value(); v != 701 {
		t.Fatalf("kvwire_ingest_records_total = %d, want 701", v)
	}

	// Versions and commit timestamps are preserved.
	rec, err := dst.Get("t", "k0042")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 49 || rec.CommitTS != 1042 {
		t.Fatalf("k0042 = v%d@%d, want v49@1042", rec.Version, rec.CommitTS)
	}
	if _, err := dst.Get("t", "kdead"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("tombstoned key readable: %v", err)
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

// Streams run server → client only. A type-8 frame — once an ingest
// request naming a table — is an unknown frame.
func TestServerRefusesFrameType8(t *testing.T) {
	expectHangUp(t, finishFrame(appendBytes(appendFrameHeader(nil, 8, 1), "t"), 0))
}

// A chunk frame sent to the server is an unknown frame too: no stream
// takes records from a client.
func TestServerRefusesClientChunk(t *testing.T) {
	expectHangUp(t, appendChunk(nil, 1, 0, []StreamRecord{{Key: "k", Version: 1, CommitTS: 1, Fields: map[string][]byte{"f": []byte("v")}}}))
}

func TestStreamScanRejectsBadParams(t *testing.T) {
	store := newTestStore(t)
	core := NewCore(store, nil, 0)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	for _, req := range []ScanRequest{
		{Table: "t", Count: -1, Slot: -1},                   // unlimited is cluster-only
		{Table: "t", Count: 10, Slot: 3},                    // slot filter is cluster-only
		{Table: "t", Count: 10, Slot: -1, AsOf: -1},         // negative snapshot
		{Table: "t", Count: 10, Slot: -1, Tombstones: true}, // tombstones need cluster + as-of
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

// injectCtx runs inject the first time the consumer evaluates Done() —
// which ScanStream does on entering its blocking select, after it has
// found the chunk mailbox empty.
type injectCtx struct {
	context.Context
	inject func()
}

func (c *injectCtx) Done() <-chan struct{} {
	if c.inject != nil {
		c.inject()
		c.inject = nil
	}
	return c.Context.Done()
}

// TestScanStreamEndDoesNotOvertakeChunk: when a stream's last chunk
// and its end frame both land while the consumer is between polls, the
// chunk must still be delivered before the end is honoured. The select
// over both mailboxes used to pick the end about half the time, and
// the scan came back short with a nil error.
func TestScanStreamEndDoesNotOvertakeChunk(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go io.Copy(io.Discard, server) // the consumer's credit frames
	c := &clientConn{conn: client, streams: make(map[uint64]*clientStream)}

	for i := 0; i < 200; i++ {
		st := c.openStream(DefaultStreamWindow)
		s := &ScanStream{c: c, st: st, ctx: &injectCtx{Context: context.Background(), inject: func() {
			st.ev <- streamEvent{recs: []StreamRecord{{Key: "a"}, {Key: "b"}}}
			c.takeStream(st.id)
			st.deliverTerm(streamEvent{end: true, status: http.StatusOK, count: 2})
		}}}
		n := 0
		for s.Next() {
			n++
		}
		if n != 2 || s.Err() != nil {
			t.Fatalf("iteration %d: scan delivered %d of 2 records, err %v", i, n, s.Err())
		}
	}

	// A stream that really is short of its declared count is an error.
	st := c.openStream(DefaultStreamWindow)
	s := &ScanStream{c: c, st: st, ctx: &injectCtx{Context: context.Background(), inject: func() {
		st.ev <- streamEvent{recs: []StreamRecord{{Key: "a"}}}
		c.takeStream(st.id)
		st.deliverTerm(streamEvent{end: true, status: http.StatusOK, count: 3})
	}}}
	for s.Next() {
	}
	var ce *StreamCountError
	if !errors.As(s.Err(), &ce) || ce.Delivered != 1 || ce.Declared != 3 {
		t.Fatalf("short stream: Err() = %v, want StreamCountError{1, 3}", s.Err())
	}
}
