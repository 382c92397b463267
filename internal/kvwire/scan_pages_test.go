package kvwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
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
	_, _, err := core.scanPages(context.Background(), "t", start, count, slot, -1, func(kv kvstore.VersionedKV) int {
		keys = append(keys, kv.Key)
		return -1
	})
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

// scanAll drains one scan, returning its keys.
func scanAll(t *testing.T, ep *Endpoint, req *ScanRequest) []string {
	t.Helper()
	s, err := ep.Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var keys []string
	for s.Next() {
		keys = append(keys, s.Record().Key)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
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

// A consumer that stops consuming bounds the server at one page: the
// scan's first page is answered, and nothing more is sent — not even
// once the consumer has taken every record of that page — until it asks
// for a record past it. Resumed, the scan delivers the rest.
func TestStreamScanSlowConsumerBounded(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 2000) // two pages
	srv, addr := startWireServer(t, NewCore(store, nil, 0), ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: 2000, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	waitFor(t, "the first page was never answered", func() bool { return srv.metrics.scanPages.Value() == 1 })
	time.Sleep(50 * time.Millisecond)
	if n := srv.metrics.scanPages.Value(); n != 1 {
		t.Fatalf("server sent %d pages to a consumer that took nothing, want 1", n)
	}
	for i := 0; i < ScanPageCap; i++ {
		if !s.Next() {
			t.Fatalf("scan ended inside its first page after %d records: %v", i, s.Err())
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := srv.metrics.scanPages.Value(); n != 1 {
		t.Fatalf("server sent %d pages before the consumer wanted a record past the first, want 1", n)
	}

	n := ScanPageCap
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("scanned %d records after the pause, want 2000", n)
	}
	if p := srv.metrics.scanPages.Value(); p != 2 {
		t.Fatalf("a 2000-record scan took %d pages, want 2", p)
	}
}

// The engine is read only for a page the consumer asked for: a drain
// whose consumer has taken exactly its first page leaves the engine
// untouched until the next record is wanted, and the pages together
// return every owned record once.
func TestStreamScanReadsOnlyOnDemand(t *testing.T) {
	core, eng, owned := newClusterCore(t, 3000)
	_, addr := startWireServer(t, core, ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 0)
	defer ep.Close()

	eng.take()
	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: -1, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []string
	for i := 0; i < ScanPageCap; i++ {
		if !s.Next() {
			t.Fatalf("scan ended inside its first page after %d records: %v", i, s.Err())
		}
		got = append(got, s.Record().Key)
	}
	if pages := eng.take(); len(pages) == 0 {
		t.Fatal("the first page read nothing from the engine")
	}
	time.Sleep(20 * time.Millisecond)
	if pages := eng.take(); len(pages) != 0 {
		t.Fatalf("the engine was read before the consumer wanted the second page: pages %v", pages)
	}

	if !s.Next() {
		t.Fatalf("scan ended after its first page: %v", s.Err())
	}
	got = append(got, s.Record().Key)
	if pages := eng.take(); len(pages) == 0 {
		t.Fatal("the second page read nothing from the engine")
	}
	for s.Next() {
		got = append(got, s.Record().Key)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, owned) {
		t.Fatalf("drain delivered %d records, want the %d owned", len(got), len(owned))
	}
}

// A consumer that stops early — the router's merge holding count —
// leaves nothing behind on the server, whether it stopped mid-page, at
// a page's end, barely into a drain or after the scan was over: no
// server goroutine outlives its page, the engine is read no further,
// and the one pooled connection serves the next scan.
func TestScanStreamEarlyCloseLeavesNoProducer(t *testing.T) {
	core, eng, owned := newClusterCore(t, 3000)
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	for _, tc := range []struct{ count, read int }{
		{2000, 10},          // a long scan, left early
		{2000, ScanPageCap}, // exactly its first page
		{-1, 1},             // a drain barely started
		{5, 5},              // already over
	} {
		eng.take()
		s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: tc.count, Slot: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.read; i++ {
			if !s.Next() {
				t.Fatalf("count %d: scan ended after %d records: %v", tc.count, i, s.Err())
			}
		}
		if pages := eng.take(); len(pages) == 0 {
			t.Fatalf("count %d: the first page read nothing", tc.count)
		}
		s.Close()
		if !answeredAll(srv) {
			t.Fatalf("count %d: a server goroutine outlived its page", tc.count)
		}
		time.Sleep(20 * time.Millisecond)
		if pages := eng.take(); len(pages) != 0 {
			t.Fatalf("count %d: the engine was read again after the consumer stopped: pages %v", tc.count, pages)
		}
	}
	if got := scanAll(t, ep, &ScanRequest{Table: "t", Count: 3, Slot: -1}); !reflect.DeepEqual(got, owned[:3]) {
		t.Fatalf("scan after the early stops = %v, want %v", got, owned[:3])
	}
	if n := srv.metrics.connsOpen.Value(); n != 1 {
		t.Fatalf("%d connections open, want the one pooled connection", n)
	}
}

// Every scan-request frame is answered by exactly one frame: fifty
// one-page scans cost the server fifty frames in and fifty out.
func TestScanPageOneFrameEachWay(t *testing.T) {
	store := newTestStore(t)
	loadKeys(t, store, 1000)
	srv, addr := startWireServer(t, NewCore(store, nil, 0), ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	for i := 0; i < 50; i++ {
		if n := len(scanAll(t, ep, &ScanRequest{Table: "t", Start: fmt.Sprintf("k%04d", i), Count: 100, Slot: -1})); n != 100 {
			t.Fatalf("scan %d: %d records", i, n)
		}
	}
	if in, out := srv.metrics.framesIn.Value(), srv.metrics.framesOut.Value(); in != 50 || out != 50 {
		t.Fatalf("server read %d frames and wrote %d for 50 one-page scans, want 50 and 50", in, out)
	}
	if n := srv.metrics.scanPages.Value(); n != 50 {
		t.Fatalf("kvwire_scan_chunks_total = %d, want 50", n)
	}
}

// servePage runs the server's scan handler for one request over a pipe
// and returns the frame it answers with.
func servePage(t *testing.T, core *Core, req *ScanRequest) (typ byte, payload []byte) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	srv := NewServer(core, ServerOptions{})
	go func() {
		srv.handleScan(&serverConn{conn: server}, 1, req)
		server.Close()
	}()
	typ, _, payload, err := ReadFrame(client, nil)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

// A page is cut at ScanPageCap records or once its encoded records reach
// scanPageBytes, whichever comes first, and says where the next page
// starts: just past its last record, or nowhere once the table or the
// count is exhausted. What the server encodes decodes back equal.
func TestScanChunkCodec(t *testing.T) {
	small := newTestStore(t)
	loadKeys(t, small, 1500)
	large := newTestStore(t)
	var want []*kvstore.VersionedRecord
	for i := 0; i < 200; i++ {
		fields := map[string][]byte{"empty": {}}
		for f := 0; f < 4; f++ {
			fields[fmt.Sprintf("field%d", f)] = []byte(fmt.Sprintf("%0500d", i*10+f))
		}
		if _, err := large.Put("t", fmt.Sprintf("k%04d", i), fields); err != nil {
			t.Fatal(err)
		}
		rec, _ := large.Get("t", fmt.Sprintf("k%04d", i))
		want = append(want, rec)
	}

	for _, tc := range []struct {
		name  string
		store kvstore.Engine
		req   ScanRequest
		n     int  // records in the page; 0: cut by bytes
		more  bool // a next-page start
	}{
		{"record bound", small, ScanRequest{Table: "t", Count: 5000, Slot: -1}, ScanPageCap, true},
		{"count", small, ScanRequest{Table: "t", Count: 700, Slot: -1}, 700, false},
		{"table end", small, ScanRequest{Table: "t", Start: "k1400", Count: 500, Slot: -1}, 100, false},
		{"byte bound", large, ScanRequest{Table: "t", Count: 200, Slot: -1}, 0, true},
	} {
		typ, payload := servePage(t, NewCore(tc.store, nil, 0), &tc.req)
		if typ != framePage {
			t.Fatalf("%s: answered with frame type %d", tc.name, typ)
		}
		recs, _, next, err := DecodePage(payload)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.n == 0 {
			if frameHeaderLen+len(payload) < scanPageBytes || len(recs) >= 200 {
				t.Fatalf("%s: %d records in %d bytes, want a cut at %d bytes", tc.name, len(recs), len(payload), scanPageBytes)
			}
		} else if len(recs) != tc.n {
			t.Fatalf("%s: page holds %d records, want %d", tc.name, len(recs), tc.n)
		}
		if wantNext := recs[len(recs)-1].Key + "\x00"; tc.more != (next != "") || tc.more && next != wantNext {
			t.Fatalf("%s: next-page start %q, want more=%v (%q)", tc.name, next, tc.more, wantNext)
		}
		if tc.store != large {
			continue
		}
		for i, r := range recs {
			if r.Key != fmt.Sprintf("k%04d", i) || r.Version != want[i].Version || r.CommitTS != want[i].CommitTS || !bytes.Equal(r.Section(), want[i].Image()) {
				t.Fatalf("record %d = %s v%d, want k%04d v%d with its fields", i, r.Key, r.Version, i, want[i].Version)
			}
		}
	}
}

// A drain of a sparse slot spans many pages, each going on from just
// past the last key the one before it looked at, and returns every
// record of the slot exactly once — what an engine scan of the table
// filtered to the slot returns.
func TestScanSparseSlotDrain(t *testing.T) {
	store := newTestStore(t)
	big := map[string][]byte{"f": make([]byte, 2000)}
	for i := 0; i < 6000; i++ {
		if _, err := store.Put("t", fmt.Sprintf("k%05d", i), big); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, 16, []string{"self"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cluster.NewState("self", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startWireServer(t, NewCore(store, cs, 0), ServerOptions{Metrics: obs.NewRegistry()})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	const slot = 5
	all, err := store.Scan("t", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, kv := range all {
		if m.SlotOf(kv.Key) == slot {
			want = append(want, kv.Key)
		}
	}
	got := scanAll(t, ep, &ScanRequest{Table: "t", Count: -1, Slot: slot})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slot drain returned %d records, the filtered engine scan %d", len(got), len(want))
	}
	if n := srv.metrics.scanPages.Value(); n < 3 {
		t.Fatalf("the drain took %d pages, want several", n)
	}
}

// A page cut by its bytes sizes its engine calls from the room it has
// left, so a slot drain of 1 KB records reads about one engine record
// per record it ships, not ScanPageCap per page of ~250, and the next
// page does not read again what this one left unshipped.
func TestScanDrainReadsWhatItShips(t *testing.T) {
	store := newTestStore(t)
	value := map[string][]byte{"f": make([]byte, 1000)}
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := store.Put("t", fmt.Sprintf("k%05d", i), value); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cluster.NewUniform(cluster.PlacementHash, 1, []string{"self"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cluster.NewState("self", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore(store, cs, 0)
	reg := obs.NewRegistry()
	core.Instrument(reg)
	srv, addr := startWireServer(t, core, ServerOptions{Metrics: reg})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	if got := scanAll(t, ep, &ScanRequest{Table: "t", Count: -1, Slot: 0}); len(got) != n {
		t.Fatalf("slot drain returned %d records, want %d", len(got), n)
	}
	if p := srv.metrics.scanPages.Value(); p < 5 {
		t.Fatalf("the drain took %d pages, want many", p)
	}
	engine := reg.Counter("kvwire_scan_engine_records_total").Value()
	shipped := reg.Counter("kvwire_scan_records_total").Value()
	if shipped != n {
		t.Fatalf("kvwire_scan_records_total = %d, want %d", shipped, n)
	}
	if ratio := float64(engine) / float64(shipped); ratio > 1.25 {
		t.Fatalf("the drain read %d engine records to ship %d (%.2f per record), want <= 1.25", engine, shipped, ratio)
	}
}

// A map installed between two pages of one scan ends it with 409: the
// filter changed between them, so the seam may have lost records.
func TestScanMapChangeBetweenPages(t *testing.T) {
	core, _, _ := newClusterCore(t, 3000)
	_, addr := startWireServer(t, core, ServerOptions{})
	ep := NewEndpoint(addr, 1)
	defer ep.Close()

	s, err := ep.Scan(context.Background(), &ScanRequest{Table: "t", Count: -1, Slot: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < ScanPageCap; i++ {
		if !s.Next() {
			t.Fatalf("scan ended inside its first page: %v", s.Err())
		}
	}
	next := core.Cluster().Map().Clone()
	next.Version++
	if _, err := core.Cluster().Install(next); err != nil {
		t.Fatal(err)
	}
	for s.Next() {
	}
	var re *RequestError
	if !errors.As(s.Err(), &re) || re.Status != http.StatusConflict {
		t.Fatalf("scan across a map install: Err() = %v, want a 409 RequestError", s.Err())
	}
}
