package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/obs"
)

func vfields(v string) map[string][]byte {
	return map[string][]byte{"v": []byte(v)}
}

// openKeepingHistory is a volatile store with a minute of retention:
// for tests that read behind the head without a pin, which a default
// store does not keep.
func openKeepingHistory(shards int) *Store {
	s, _ := Open(Options{Shards: shards, Retention: time.Minute}) // a volatile open cannot fail
	return s
}

// TestVersionChainAsOf walks one key through its whole lifecycle —
// insert, overwrite, delete, reinsert — and checks that a snapshot
// timestamp drawn between any two mutations keeps reading the state it
// saw, tombstone windows included.
func TestVersionChainAsOf(t *testing.T) {
	s := openKeepingHistory(1)
	defer s.Close()

	ts0 := s.SnapshotTS()
	if _, err := s.Put("t", "k", vfields("one")); err != nil {
		t.Fatal(err)
	}
	ts1 := s.SnapshotTS()
	if _, err := s.Put("t", "k", vfields("two")); err != nil {
		t.Fatal(err)
	}
	ts2 := s.SnapshotTS()
	if err := s.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	ts3 := s.SnapshotTS()
	if _, err := s.Put("t", "k", vfields("four")); err != nil {
		t.Fatal(err)
	}
	ts4 := s.SnapshotTS()

	if _, err := s.GetAsOf("t", "k", ts0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("before insert: got err %v, want ErrNotFound", err)
	}
	for _, tc := range []struct {
		ts   int64
		want string
	}{{ts1, "one"}, {ts2, "two"}, {ts4, "four"}} {
		rec, err := s.GetAsOf("t", "k", tc.ts)
		if err != nil {
			t.Fatalf("GetAsOf(%d): %v", tc.ts, err)
		}
		if got := string(rec.Field("v")); got != tc.want {
			t.Fatalf("GetAsOf(%d) = %q, want %q", tc.ts, got, tc.want)
		}
	}
	if _, err := s.GetAsOf("t", "k", ts3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("inside tombstone window: got err %v, want ErrNotFound", err)
	}

	// The head keeps normal semantics and the version sequence runs
	// through the tombstone: put, put, delete, put = version 4.
	head, err := s.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if head.Version != 4 || string(head.Field("v")) != "four" {
		t.Fatalf("head = v%d %q, want v4 \"four\"", head.Version, head.Field("v"))
	}
}

// TestScanAsOfFrozenCut checks that a scan at a snapshot ts returns the
// table exactly as it stood then — overwrites invisible, later deletes
// still present, later inserts absent — while the head scan moves on.
func TestScanAsOfFrozenCut(t *testing.T) {
	s := openKeepingHistory(4)
	defer s.Close()

	for i := 0; i < 10; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%02d", i), vfields(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cut := s.SnapshotTS()

	if _, err := s.Put("t", "k03", vfields("new3")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("t", "k07"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "k99", vfields("late")); err != nil {
		t.Fatal(err)
	}

	kvs, err := s.ScanAsOf("t", "", -1, cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("as-of scan returned %d keys, want 10", len(kvs))
	}
	for i, kv := range kvs {
		wantKey := fmt.Sprintf("k%02d", i)
		wantVal := fmt.Sprintf("old%d", i)
		if kv.Key != wantKey || string(kv.Record.Field("v")) != wantVal {
			t.Fatalf("as-of scan[%d] = %s=%q, want %s=%q", i, kv.Key, kv.Record.Field("v"), wantKey, wantVal)
		}
	}

	head, err := s.Scan("t", "", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != 10 { // 10 - deleted k07 + inserted k99
		t.Fatalf("head scan returned %d keys, want 10", len(head))
	}
	for _, kv := range head {
		if kv.Key == "k07" {
			t.Fatal("head scan still sees deleted k07")
		}
	}
}

// TestRetentionTrimsOnWritePath checks the inline trim: with a tiny
// retention window, rewriting one key over and over must not grow its
// chain without bound.
func TestRetentionTrimsOnWritePath(t *testing.T) {
	s, err := Open(Options{Retention: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 64; i++ {
		if _, err := s.Put("t", "k", vfields(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	head, err := s.Get("t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if n := chainLength(head); n > 2 {
		t.Fatalf("chain grew to %d versions under nanosecond retention", n)
	}
}

// TestVacuumPurgesExpiredTombstones checks the background sweep: a
// deleted key's tombstone is reclaimable once it ages past retention,
// and the key leaves the tree entirely (Len drops, head read misses).
func TestVacuumPurgesExpiredTombstones(t *testing.T) {
	s, err := Open(Options{Retention: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 8; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%d", i), vfields("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := s.Delete("t", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len("t"); got != 4 {
		t.Fatalf("live count before vacuum = %d, want 4", got)
	}
	time.Sleep(time.Millisecond) // let the tombstones age past retention
	if _, keys := s.Vacuum(); keys != 4 {
		t.Fatalf("vacuum purged %d keys, want 4", keys)
	}
	if got := s.Len("t"); got != 4 {
		t.Fatalf("live count after vacuum = %d, want 4", got)
	}
	if _, err := s.Get("t", "k0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("purged key read: %v, want ErrNotFound", err)
	}
}

// TestPinHoldsVacuum is the pin/vacuum contract: versions visible at a
// pinned snapshot survive any number of Vacuum sweeps, and become
// reclaimable only after release.
func TestPinHoldsVacuum(t *testing.T) {
	s, err := Open(Options{Retention: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Put("t", "k", vfields("pinned")); err != nil {
		t.Fatal(err)
	}
	ts, release := s.Pin()
	for i := 0; i < 8; i++ {
		if _, err := s.Put("t", "k", vfields(fmt.Sprintf("later%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(time.Millisecond)
	s.Vacuum()
	rec, err := s.GetAsOf("t", "k", ts)
	if err != nil {
		t.Fatalf("pinned read after vacuum: %v", err)
	}
	if string(rec.Field("v")) != "pinned" {
		t.Fatalf("pinned read = %q, want \"pinned\"", rec.Field("v"))
	}

	release()
	release() // idempotent
	time.Sleep(time.Millisecond)
	s.Vacuum()
	if _, err := s.GetAsOf("t", "k", ts); !errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("post-release read at %d: %v, want ErrBelowHorizon (version reclaimed)", ts, err)
	}
}

// TestSetVacuumFloorHoldsVacuum checks the external watermark: an
// outer layer (the txn manager's oldest snapshot reader) can hold the
// reclaim horizon without taking an engine pin.
func TestSetVacuumFloorHoldsVacuum(t *testing.T) {
	s, err := Open(Options{Retention: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Put("t", "k", vfields("held")); err != nil {
		t.Fatal(err)
	}
	ts := s.SnapshotTS()
	s.SetVacuumFloor(ts)
	for i := 0; i < 8; i++ {
		if _, err := s.Put("t", "k", vfields("later")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(time.Millisecond)
	s.Vacuum()
	if rec, err := s.GetAsOf("t", "k", ts); err != nil || string(rec.Field("v")) != "held" {
		t.Fatalf("watermark-held read = %v, %v; want \"held\"", rec, err)
	}
	s.SetVacuumFloor(0)
	time.Sleep(time.Millisecond)
	s.Vacuum()
	if _, err := s.GetAsOf("t", "k", ts); !errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("post-clear read: %v, want ErrBelowHorizon", err)
	}
}

// TestAsOfBelowHorizonIsTyped is the no-silent-trim contract: an as-of
// read whose version was reclaimed fails with ErrBelowHorizon on every
// read path — never ErrNotFound alone, never a scan that drops the key —
// while a key that did not exist at the timestamp still reads as plain
// ErrNotFound. A deleted key Vacuum purged is below the horizon too
// until the read's timestamp reaches its tombstone.
func TestAsOfBelowHorizonIsTyped(t *testing.T) {
	s, err := Open(Options{Shards: 2, Retention: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Put("t", "k", vfields("one")); err != nil {
		t.Fatal(err)
	}
	ts := s.SnapshotTS()
	if _, err := s.Put("t", "k", vfields("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "late", vfields("x")); err != nil {
		t.Fatal(err)
	}
	s.Vacuum()

	below := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBelowHorizon) {
			t.Errorf("%s: %v, want ErrBelowHorizon", what, err)
		}
	}
	absent := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNotFound) || errors.Is(err, ErrBelowHorizon) {
			t.Errorf("%s: %v, want plain ErrNotFound", what, err)
		}
	}
	_, err = s.GetAsOf("t", "k", ts)
	below("GetAsOf overwritten", err)
	res := s.BatchGetAsOf([]GetReq{{"t", "k"}, {"t", "late"}, {"t", "never"}}, ts)
	below("BatchGetAsOf overwritten", res[0].Err)
	absent("BatchGetAsOf inserted later", res[1].Err)
	absent("BatchGetAsOf never written", res[2].Err)
	_, err = s.ScanAsOf("t", "", -1, ts)
	below("ScanAsOf", err)
	_, err = s.ScanVersionsAsOf("t", "", -1, ts)
	below("ScanVersionsAsOf", err)
	_, err = s.GetAsOf("t", "late", ts)
	absent("GetAsOf inserted later", err)
	_, err = s.GetAsOf("t", "never", ts)
	absent("GetAsOf never written", err)

	if _, err := s.Put("t", "gone", vfields("x")); err != nil {
		t.Fatal(err)
	}
	live := s.SnapshotTS()
	if err := s.Delete("t", "gone"); err != nil {
		t.Fatal(err)
	}
	if _, keys := s.Vacuum(); keys != 1 {
		t.Fatalf("vacuum purged %d keys, want 1", keys)
	}
	_, err = s.GetAsOf("t", "gone", live)
	below("GetAsOf purged key before its delete", err)
	_, err = s.GetAsOf("t", "gone", s.SnapshotTS())
	absent("GetAsOf purged key after its delete", err)
}

// TestDefaultChainStaysShort: a default store keeps an overwritten
// version only while something can read it. Unpinned, ten thousand
// overwrites of one key leave a chain of at most two; under a pin the
// pinned version reads exactly, and once the pin goes the next write
// cuts the chain back.
func TestDefaultChainStaysShort(t *testing.T) {
	s := OpenMemoryShards(4)
	defer s.Close()
	put := func(v string) {
		t.Helper()
		if _, err := s.Put("t", "k", vfields(v)); err != nil {
			t.Fatal(err)
		}
	}
	chain := func() int {
		t.Helper()
		head, err := s.Get("t", "k")
		if err != nil {
			t.Fatal(err)
		}
		return chainLength(head)
	}
	for i := 0; i < 10000; i++ {
		put(strconv.Itoa(i))
	}
	if n := chain(); n > 2 {
		t.Fatalf("chain is %d versions after 10 000 unpinned overwrites, want ≤ 2", n)
	}

	put("pinned")
	ts, release := s.Pin()
	for i := 0; i < 100; i++ {
		put(fmt.Sprintf("later%d", i))
	}
	s.Vacuum()
	if rec, err := s.GetAsOf("t", "k", ts); err != nil || string(rec.Field("v")) != "pinned" {
		t.Fatalf("pinned read = %v, %v; want \"pinned\"", rec, err)
	}
	release()
	put("after")
	if n := chain(); n > 2 {
		t.Fatalf("chain is %d versions after the pin was released, want ≤ 2", n)
	}
}

// TestVersionsRetainedGauges: the version-memory gauges count what sits
// behind the heads — nothing on a default store, the pinned versions
// while a pin holds them — and reach /metrics under their names.
func TestVersionsRetainedGauges(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			if _, err := s.Put("t", fmt.Sprintf("k%d", i), vfields("0123456789")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, b := s.retained(); n != 0 || b != 0 {
		t.Fatalf("default store retains %d versions / %d bytes, want 0 / 0", n, b)
	}
	_, release := s.Pin()
	var want int64
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		old, err := s.Get("t", k)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(len(old.Image()))
		if _, err := s.Put("t", k, vfields("new")); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := s.retained(); n != 3 || b != want {
		t.Fatalf("pinned store retains %d versions / %d bytes, want 3 / %d", n, b, want)
	}
	var out bytes.Buffer
	if err := reg.Export(&out); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"kvstore_versions_retained 3", fmt.Sprintf("kvstore_versions_retained_bytes %d", want)} {
		if !strings.Contains(out.String(), series) {
			t.Errorf("exposition lacks %q", series)
		}
	}
	release()
	s.Vacuum()
	if n, _ := s.retained(); n != 0 {
		t.Fatalf("%d versions retained after the pin went and Vacuum ran, want 0", n)
	}
}

// TestWALReplayRebuildsChains checks durability of history: version
// chains (tombstones included) survive close/reopen, the clock resumes
// above everything replayed, and snapshot reads at pre-restart
// timestamps still answer.
func TestWALReplayRebuildsChains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s, err := Open(Options{Path: path, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("t", "k", vfields("one")); err != nil {
		t.Fatal(err)
	}
	ts1 := s.SnapshotTS()
	if _, err := s.Put("t", "k", vfields("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("t", "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("sanity: %v", err)
	}
	if _, err := s.Put("t", "dead", vfields("x")); err != nil {
		t.Fatal(err)
	}
	ts2 := s.SnapshotTS()
	if err := s.Delete("t", "dead"); err != nil {
		t.Fatal(err)
	}
	maxTS := s.clock.Load()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Path: path, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec, err := s2.GetAsOf("t", "k", ts1); err != nil || string(rec.Field("v")) != "one" {
		t.Fatalf("replayed GetAsOf(ts1) = %v, %v; want \"one\"", rec, err)
	}
	if rec, err := s2.Get("t", "k"); err != nil || string(rec.Field("v")) != "two" {
		t.Fatalf("replayed head = %v, %v; want \"two\"", rec, err)
	}
	if rec, err := s2.GetAsOf("t", "dead", ts2); err != nil || string(rec.Field("v")) != "x" {
		t.Fatalf("replayed pre-delete read = %v, %v; want \"x\"", rec, err)
	}
	if _, err := s2.Get("t", "dead"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("replayed tombstone head read: %v, want ErrNotFound", err)
	}
	if got := s2.clock.Load(); got < maxTS {
		t.Fatalf("replayed clock %d below pre-restart max %d", got, maxTS)
	}
}

// TestPinnedReadsStableUnderChurn is the acceptance stress: reads at a
// pinned timestamp stay byte-identical while writers overwrite and
// delete the same keys, Compact rewrites the WAL segments, and Vacuum
// sweeps with an aggressive retention window. Run under -race by make
// check.
func TestPinnedReadsStableUnderChurn(t *testing.T) {
	const shards, keys = 4, 64
	s, err := Open(Options{
		Path:        filepath.Join(t.TempDir(), "wal"),
		Shards:      shards,
		GroupCommit: 200 * time.Microsecond,
		SyncWrites:  true,
		Retention:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	expect := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%04d", i)
		v := []byte(fmt.Sprintf("seed%d", i))
		if _, err := s.Put("t", k, map[string][]byte{"v": v}); err != nil {
			t.Fatal(err)
		}
		expect[k] = v
	}
	pinTS, release := s.Pin()
	defer release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad atomic.Int64
	fail := func(format string, args ...any) {
		bad.Add(1)
		t.Errorf(format, args...)
	}

	// Writers: overwrite and periodically delete/reinsert the seeded
	// keys so tombstones and reinserts land on top of pinned versions.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%04d", (w*17+c)%keys)
				if c%5 == 3 {
					if err := s.Delete("t", k); err != nil && !errors.Is(err, ErrNotFound) {
						fail("delete: %v", err)
						return
					}
				} else if _, err := s.Put("t", k, vfields(fmt.Sprintf("w%d.%d", w, c))); err != nil {
					fail("put: %v", err)
					return
				}
			}
		}(w)
	}
	// Compactor and vacuum, racing the pinned readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Compact(); err != nil {
				fail("compact: %v", err)
				return
			}
			s.Vacuum()
		}
	}()

	// Pinned readers: point reads and full scans at pinTS must match
	// the seeded snapshot byte for byte, forever.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < keys; i += 7 {
					k := fmt.Sprintf("k%04d", i)
					rec, err := s.GetAsOf("t", k, pinTS)
					if err != nil {
						fail("pinned get %s: %v", k, err)
						return
					}
					if !bytes.Equal(rec.Field("v"), expect[k]) {
						fail("pinned get %s = %q, want %q", k, rec.Field("v"), expect[k])
						return
					}
				}
				kvs, err := s.ScanAsOf("t", "", -1, pinTS)
				if err != nil {
					fail("pinned scan: %v", err)
					return
				}
				if len(kvs) != keys {
					fail("pinned scan saw %d keys, want %d", len(kvs), keys)
					return
				}
				for _, kv := range kvs {
					if !bytes.Equal(kv.Record.Field("v"), expect[kv.Key]) {
						fail("pinned scan %s = %q, want %q", kv.Key, kv.Record.Field("v"), expect[kv.Key])
						return
					}
				}
			}
		}()
	}

	d := 800 * time.Millisecond
	if testing.Short() {
		d = 400 * time.Millisecond
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	if bad.Load() > 0 {
		t.Fatalf("%d pinned-read violations", bad.Load())
	}
}

// BenchmarkAsOfScanUnderWrites measures snapshot-scan throughput while
// writers churn the same table — the "long read-only scan under write
// load" shape the MVCC refactor exists for. Emitted into
// BENCH_mvcc.json by make bench-quick.
func BenchmarkAsOfScanUnderWrites(b *testing.B) {
	const keys = 1024
	s := OpenMemoryShards(8)
	defer s.Close()
	for i := 0; i < keys; i++ {
		if _, err := s.Put("t", fmt.Sprintf("k%05d", i), vfields("seed")); err != nil {
			b.Fatal(err)
		}
	}
	ts, release := s.Pin()
	defer release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; ; c++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%05d", (w*31+c)%keys)
				s.Put("t", k, vfields("churn"))
			}
		}(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs, err := s.ScanAsOf("t", "", -1, ts)
		if err != nil {
			b.Fatal(err)
		}
		if len(kvs) != keys {
			b.Fatalf("scan saw %d keys, want %d", len(kvs), keys)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
