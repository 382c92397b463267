package kvwire

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ycsbt/internal/cluster"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// pageRecorder records the count of every engine scan call, so tests
// can assert how far a scan read, not just what it returned.
type pageRecorder struct {
	kvstore.Engine
	mu    sync.Mutex
	pages []int
}

func (e *pageRecorder) Scan(table, start string, count int) ([]kvstore.VersionedKV, error) {
	e.mu.Lock()
	e.pages = append(e.pages, count)
	e.mu.Unlock()
	return e.Engine.Scan(table, start, count)
}

func (e *pageRecorder) take() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.pages
	e.pages = nil
	return p
}

// newClusterCore builds a cluster-mode core for node "self" of a
// two-node hash map over a store holding k0000..k<n-1>: about half the
// keys are foreign, so the ownership filter has work to do.
func newClusterCore(t *testing.T, n int) (*Core, *pageRecorder, []string) {
	t.Helper()
	store := newTestStore(t)
	loadKeys(t, store, n)
	m, err := cluster.NewUniform(cluster.PlacementHash, 16, []string{"self", "other"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cluster.NewState("self", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var owned []string
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		if owner, _ := m.Owner(key); owner == "self" {
			owned = append(owned, key)
		}
	}
	eng := &pageRecorder{Engine: store}
	return NewCore(eng, cs, 0), eng, owned
}

func scanKeys(t *testing.T, core *Core, start string, count, slot int) []string {
	t.Helper()
	var keys []string
	err := core.scanPages(context.Background(), "t", start, count, 0, slot, func(kv kvstore.VersionedKV) error {
		keys = append(keys, kv.Key)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// The request's count bounds what a cluster-mode scan reads: the first
// engine page asks for count records, later pages are sized from the
// filter's pass rate and never exceed ScanPageCap; drains start at the
// cap. Whatever the page sequence, the result is exactly the first
// count owned records.
func TestScanPagesBoundedByCount(t *testing.T) {
	core, eng, owned := newClusterCore(t, 3000)

	for _, tc := range []struct {
		count int
		first int // first page size
	}{
		{1, 1}, {10, 10}, {100, 100}, {1000, 1000}, {5000, ScanPageCap}, {1 << 40, ScanPageCap}, {-1, ScanPageCap},
	} {
		eng.take()
		got := scanKeys(t, core, "", tc.count, -1)
		want := owned
		if tc.count >= 0 && tc.count < len(want) {
			want = want[:tc.count]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("count %d: scan returned %d records, want the first %d owned", tc.count, len(got), len(want))
		}
		pages := eng.take()
		if pages[0] != tc.first {
			t.Errorf("count %d: first engine page asked for %d records, want %d", tc.count, pages[0], tc.first)
		}
		asked := 0
		for i, p := range pages {
			if p > ScanPageCap {
				t.Errorf("count %d: page %d asked for %d records, over the cap", tc.count, i, p)
			}
			asked += p
		}
		// Half the store is foreign: two engine records per record kept
		// is the floor, and sizing pages from the pass rate seen so far
		// stays close to it.
		if tc.count > 0 && asked > 3*len(got)+4 {
			t.Errorf("count %d: pages %v ask the engine for %d records to return %d", tc.count, pages, asked, len(got))
		}
	}

	for _, tc := range []struct{ last, need, emitted, scanned, want int }{
		{1024, -1, 70, 1024, ScanPageCap},    // a drain stays at the cap
		{100, 1 << 40, 30, 100, ScanPageCap}, // so does anything that needs more than a page
		{8, 8, 0, 8, 16},                     // nothing passed yet: double
		{1024, 5, 0, 9000, ScanPageCap},      // ...up to the cap
		{100, 67, 33, 100, 230},              // a third passes: 67×100/33 = 204, plus an eighth
		{100, 2, 98, 100, 4},                 // nearly everything passes: a small top-up page
		{1000, 1000, 1, 1000, ScanPageCap},   // a sliver passes: the cap, not a million
	} {
		if got := nextScanPage(tc.last, tc.need, tc.emitted, tc.scanned); got != tc.want {
			t.Errorf("nextScanPage(%d, %d, %d, %d) = %d, want %d", tc.last, tc.need, tc.emitted, tc.scanned, got, tc.want)
		}
	}

	// A scan that starts inside a long foreign run must keep paging
	// until it has count owned records or the table ends — a
	// count-bounded first page is not a licence to come back short.
	slot := 3
	m := core.Cluster().Map()
	var inSlot []string
	for i := 0; i < 3000; i++ {
		if key := fmt.Sprintf("k%04d", i); m.SlotOf(key) == slot {
			inSlot = append(inSlot, key)
		}
	}
	if got := scanKeys(t, core, "", 50, slot); !reflect.DeepEqual(got, inSlot[:50]) {
		t.Fatalf("slot scan returned %d records %v..., want the slot's first 50", len(got), got[:min(3, len(got))])
	}
	if got := scanKeys(t, core, inSlot[len(inSlot)-3], 50, slot); !reflect.DeepEqual(got, inSlot[len(inSlot)-3:]) {
		t.Fatalf("slot scan near the table end returned %v, want the slot's last 3", got)
	}
	if got := scanKeys(t, core, "", 0, -1); len(got) != 0 {
		t.Fatalf("count 0 returned %d records", len(got))
	}
}

// The two scan counters make a node's over-fetch readable from its
// /metrics: records the engine returned against records handed on.
func TestScanCountersExposeOverfetch(t *testing.T) {
	core, _, owned := newClusterCore(t, 3000)
	reg := obs.NewRegistry()
	core.Instrument(reg)
	_, addr := startWireServer(t, core, ServerOptions{Metrics: reg})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	engine := reg.Counter("kvwire_scan_engine_records_total")
	emitted := reg.Counter("kvwire_scan_records_total")
	for i := 0; i < 20; i++ {
		s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Start: owned[i*7], Count: 100, Slot: -1})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for s.Next() {
			n++
		}
		if err := s.Err(); err != nil || n != 100 {
			t.Fatalf("scan %d: %d records, err %v", i, n, err)
		}
	}
	if got := emitted.Value(); got != 2000 {
		t.Fatalf("kvwire_scan_records_total = %d, want 2000", got)
	}
	// Half the store is foreign, so ~200 engine records per 100 emitted
	// plus the second page's margin: well under 4, where the fixed
	// 1024-record page read 10 per record.
	if ratio := float64(engine.Value()) / float64(emitted.Value()); ratio > 4 {
		t.Fatalf("engine records / emitted records = %.2f, want <= 4", ratio)
	}
	// The HTTP front end's scans run the same loop and count too.
	if _, err := core.Scan(context.Background(), "t", "", 10); err != nil {
		t.Fatal(err)
	}
	if got := emitted.Value(); got != 2010 {
		t.Fatalf("after a Core.Scan kvwire_scan_records_total = %d, want 2010", got)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A producer reads the engine only for a chunk its consumer has asked
// for: with a window of one, the first page ships as the first chunk
// and the engine is not touched again until a credit arrives.
func TestStreamScanReadsOnlyOnDemand(t *testing.T) {
	core, eng, owned := newClusterCore(t, 3000)
	reg := obs.NewRegistry()
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: reg})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: 64, Slot: -1, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The first page (64 engine records, about half owned) ships without
	// waiting for a full chunk; the producer then parks.
	waitFor(t, "producer never stalled on credits", func() bool { return srv.metrics.creditsStalled.Value() > 0 })
	if n := srv.metrics.scanChunks.Value(); n != 1 {
		t.Fatalf("server sent %d chunks before any credit, want 1", n)
	}
	if pages := eng.take(); !reflect.DeepEqual(pages, []int{64}) {
		t.Fatalf("engine pages before any credit = %v, want [64]", pages)
	}
	time.Sleep(20 * time.Millisecond)
	if pages := eng.take(); len(pages) != 0 {
		t.Fatalf("parked producer read the engine again: pages %v", pages)
	}
	// Consuming the chunk grants the credit; the scan completes exactly.
	var got []string
	for s.Next() {
		got = append(got, s.Record().Key)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, owned[:64]) {
		t.Fatalf("scan delivered %d records, want the first 64 owned", len(got))
	}
}

// A scan that fits its first chunk costs the server one inbound frame:
// its end rides with the chunk, so the consumer neither grants a
// credit for a stream that is over nor cancels it on Close.
func TestScanStreamNoCreditAfterEnd(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 1000)
	core := NewCore(store, nil, 0)
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	for i := 0; i < 50; i++ {
		s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Start: fmt.Sprintf("k%04d", i), Count: 100, Slot: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Consume only once the read loop holds the stream's end, so the
		// assertion below is about the consumer's rule, not about who
		// wins the race between the last record and the end frame.
		waitFor(t, "stream end never arrived", func() bool { return len(s.st.term) == 1 })
		n := 0
		for s.Next() {
			n++
		}
		if err := s.Err(); err != nil || n != 100 {
			t.Fatalf("scan %d: %d records, err %v", i, n, err)
		}
		s.Close()
	}
	// Frames the consumer wrote are counted as the server reads them;
	// a credit or cancel sent after the last scan would still be in
	// flight, so let the connection drain before counting.
	ep.Close()
	waitFor(t, "connection never closed", func() bool { return srv.metrics.connsOpen.Value() == 0 })
	if in := srv.metrics.framesIn.Value(); in != 50 {
		t.Fatalf("server read %d frames for 50 one-chunk scans, want 50 (the scan requests)", in)
	}
	if out := srv.metrics.framesOut.Value(); out != 100 {
		t.Fatalf("server wrote %d frames for 50 one-chunk scans, want 100 (chunk + end each)", out)
	}
}

// A consumer that stops early — the router's merge holding count —
// leaves nothing behind on the server: the producer goroutine exits
// and its stream is unregistered, whether it was mid-page, parked on
// credits, or already finished.
func TestScanStreamEarlyCloseLeavesNoProducer(t *testing.T) {
	core, _, _ := newClusterCore(t, 3000)
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	for _, tc := range []struct{ count, window, read int }{
		{2000, 1, 10},  // parked on credits
		{2000, 8, 300}, // mid-stream
		{-1, 4, 1},     // a drain barely started
		{5, 4, 5},      // already over
	} {
		s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: tc.count, Slot: -1, Window: tc.window})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.read; i++ {
			if !s.Next() {
				t.Fatalf("count %d: stream ended after %d records: %v", tc.count, i, s.Err())
			}
		}
		s.Close()
		done := make(chan struct{})
		go func() {
			srv.handlers.Wait() // a producer unregisters its stream before it is done
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("count %d window %d: producer still running after Close", tc.count, tc.window)
		}
	}
	// The connection survived every cancel and still serves scans.
	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: 3, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil || n != 3 {
		t.Fatalf("scan after cancels: %d records, err %v", n, err)
	}
	if in := srv.metrics.connsOpen.Value(); in != 1 {
		t.Fatalf("%d connections open, want the one pooled connection", in)
	}
}

// appendScanChunk encodes engine records directly and cuts the frame
// at the byte bound; the padded record count must be invisible to
// whoever decodes the chunk.
func TestScanChunkCodec(t *testing.T) {
	kvs := make([]kvstore.VersionedKV, 200)
	for i := range kvs {
		fields := map[string][]byte{"empty": {}}
		for f := 0; f < 4; f++ {
			fields[fmt.Sprintf("field%d", f)] = []byte(fmt.Sprintf("%0500d", i*10+f))
		}
		kvs[i] = kvstore.VersionedKV{
			Key:    fmt.Sprintf("k%04d", i),
			Record: &kvstore.VersionedRecord{Version: uint64(i + 1), CommitTS: int64(100 + i), Fields: fields},
		}
	}
	var got []StreamRecord
	frames := 0
	for rest := kvs; len(rest) > 0; frames++ {
		frame, n := appendScanChunk(nil, 9, 7, rest)
		if n < 1 || n > len(rest) {
			t.Fatalf("frame %d carries %d of %d records", frames, n, len(rest))
		}
		if len(rest) > n && len(frame) < streamChunkBytes {
			t.Fatalf("frame %d cut at %d bytes, under the %d bound, with records left", frames, len(frame), streamChunkBytes)
		}
		mapVer, recs, err := DecodeChunk(frame[frameHeaderLen:], nil)
		if err != nil || mapVer != 7 || len(recs) != n {
			t.Fatalf("frame %d: decoded %d records (map v%d, err %v), want %d", frames, len(recs), mapVer, err, n)
		}
		got = append(got, recs...)
		rest = rest[n:]
	}
	if frames < 2 {
		t.Fatalf("%d KiB of records fit %d frame: the byte bound never cut", 200*2, frames)
	}
	for i, r := range got {
		want := kvs[i]
		if r.Key != want.Key || r.Version != want.Record.Version || r.CommitTS != want.Record.CommitTS {
			t.Fatalf("record %d = %+v, want %s v%d", i, r, want.Key, want.Record.Version)
		}
		if !reflect.DeepEqual(r.Fields, want.Record.Fields) {
			t.Fatalf("record %d fields differ", i)
		}
	}
}
