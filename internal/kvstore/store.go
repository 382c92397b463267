package kvstore

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/obs"
)

// Common storage errors. Each outcome a db binding reports wraps the
// db sentinel it means (db.ErrNotFound, db.ErrConflict), so an engine
// error passes up every layer as it is: callers match either the
// engine's sentinel or the db one with errors.Is.
var (
	// ErrNotFound reports that the key does not exist.
	ErrNotFound = fmt.Errorf("kvstore: %w", db.ErrNotFound)
	// ErrVersionMismatch reports a failed conditional operation.
	ErrVersionMismatch = fmt.Errorf("kvstore: version mismatch: %w", db.ErrConflict)
	// ErrExists reports that a create-only put found an existing key.
	ErrExists = fmt.Errorf("kvstore: key already exists: %w", db.ErrConflict)
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("kvstore: store is closed")
	// ErrBelowHorizon reports an as-of read the store can no longer
	// answer exactly: what the key held at that timestamp has been
	// reclaimed. It matches ErrNotFound too, so a caller that only asks
	// "is there a record?" reads it as absent; a caller that must not
	// mistake a reclaimed version for absence tests ErrBelowHorizon
	// first, as db.ReturnCode does with db.ErrBelowHorizon. Pin (or a
	// positive Options.Retention) keeps reads above the horizon.
	ErrBelowHorizon = fmt.Errorf("kvstore: %w: %w", db.ErrBelowHorizon, ErrNotFound)
)

// VersionedRecord is a stored record together with its version and
// commit timestamp. The version starts at 1 on insert and increments
// on every successful mutation (including tombstones); it is the
// engine's ETag and the compare handle of every conditional
// operation. CommitTS is the store-wide monotonic commit timestamp
// assigned under the partition lock; each key's versions form a short
// commit-timestamp-ordered chain (newest first) that time-travel
// reads walk via AsOf.
//
// A version the engine stores is its image — the canonical field
// section (image.go) — and nothing else: its Fields is nil. Readers go
// through Field, Range, Project and Image, which work on either form,
// so a record built outside the engine around a map (a remote read, a
// ForEach copy) reads the same way.
//
// Immutability contract: records returned by Get, Scan and BatchGet
// are the engine's own stored values, shared with concurrent readers —
// not copies. Callers must treat them, and every value slice a reader
// hands out (they point into the image), as read-only; Project builds
// a map the caller owns. ForEach hands out copies with Fields decoded.
// Writers uphold the other half of the contract: every mutation stores
// a freshly built record and never edits a published one in place. The
// only post-publish mutation the engine itself performs is cutting a
// chain's prev pointer to nil (retention trim / vacuum), which is an
// atomic store concurrent walkers tolerate.
type VersionedRecord struct {
	Version  uint64
	CommitTS int64
	// Fields is the record as a map. It is nil on every version the
	// engine stores; records built outside the engine may carry one.
	Fields map[string][]byte

	// image is the canonical field section (image.go); nil for
	// tombstones and for records built around a map.
	image []byte
	// shape is the image's names as strings, shared with every version
	// of the same names (see image.go); nil where image is.
	shape *shape

	// prev links to the next-older version of the same key (nil at the
	// chain tail). Atomic because vacuum cuts chains with one store
	// while lock-free readers walk them.
	prev atomic.Pointer[VersionedRecord]

	// tailTS is the oldest commit ts reachable through the chain and
	// chainLen the link count, both recorded at link time so the write
	// path can skip trim walks when nothing is expired. They are
	// written only before the record is published (or under the
	// partition lock) and may be conservatively stale after a
	// lock-free vacuum cut.
	tailTS   int64
	chainLen uint32

	// deleted marks a tombstone: the version recording a delete. A
	// tombstone head reads as "not found" at the head and at any ts at
	// or after its commit; older versions beneath it remain readable.
	deleted bool
	// first marks the version that began its key's chain — version 1,
	// or the first write after a purge — so nothing older was ever
	// linked below it.
	first bool
}

// Prev returns the next-older version in the chain, or nil at the
// tail. A chain keeps only what a pin, the txn watermark or an opted-in
// Options.Retention can still read, so with none of them Prev of a
// head is nil as soon as the next write lands. Nil from version 1 means
// the key had no older version; nil from a later one means its
// predecessors were reclaimed, or that the key was deleted and purged
// before this chain began.
func (v *VersionedRecord) Prev() *VersionedRecord { return v.prev.Load() }

// AsOf walks the chain to the newest version with CommitTS ≤ ts and
// returns it — tombstones included — or nil when every version is
// newer than ts. Callers wanting read semantics should treat a
// tombstone result as "not found", and a nil one as possibly reclaimed
// (GetAsOf tells the two apart).
func (v *VersionedRecord) AsOf(ts int64) *VersionedRecord {
	v, _ = versionAt(v, ts)
	return v
}

// versionAt is AsOf that also says why it found nothing: trimmed when
// every version left is newer than ts and the oldest of them did not
// begin the chain, so the version at ts was reclaimed rather than never
// written. (Whether an older, purged chain of the key had a version at
// ts is the purge horizon's to say; see readAt.point.)
func versionAt(head *VersionedRecord, ts int64) (v *VersionedRecord, trimmed bool) {
	for v = head; v != nil; {
		if v.CommitTS <= ts {
			return v, false
		}
		prev := v.prev.Load()
		if prev == nil {
			return nil, !v.first
		}
		v = prev
	}
	return nil, false
}

// link records prev as this record's older neighbour and carries the
// chain bookkeeping (tail ts, length) forward. Called before the
// record is published.
func (v *VersionedRecord) link(prev *VersionedRecord) {
	v.tailTS = v.CommitTS
	v.chainLen = 1
	if prev != nil {
		v.prev.Store(prev)
		v.tailTS = prev.tailTS
		v.chainLen = prev.chainLen + 1
	}
}

// VersionedKV pairs a key with its versioned record in scan results.
type VersionedKV struct {
	Key    string
	Record *VersionedRecord
}

// AnyVersion passes any current version in conditional operations.
const AnyVersion = ^uint64(0)

// MustNotExist is the expected version for create-only puts.
const MustNotExist = uint64(0)

// DefaultShards is the partition count of every store the bindings,
// cloudsim, cmd/kvserver and the figure sweeps open.
const DefaultShards = 8

// DefaultRetention is the wall-clock retention window a store keeps
// unless told otherwise (Options.Retention):
// none. An overwritten version then lives only while a pin or the
// published txn watermark can still read it, so a default store holds
// each key's head and little else however fast it is written.
const DefaultRetention time.Duration = 0

// noFloor is the pin/watermark floor meaning "nothing pinned".
const noFloor = int64(math.MaxInt64)

// manifestName is the file recording a sharded directory's layout.
const manifestName = "MANIFEST"

// Options configures a Store.
type Options struct {
	// Path is the WAL location; empty means a volatile in-memory
	// store with no durability. With a single shard it names the WAL
	// file itself (the original single-segment layout); with multiple
	// shards it names a directory holding one segment per shard
	// (wal-<shard>.log) plus a MANIFEST pinning the shard count.
	Path string
	// SyncWrites forces an fsync after every logged mutation. Off by
	// default, trading durability for latency exactly as the paper's
	// "latency versus durability" discussion describes.
	SyncWrites bool
	// Shards is the number of hash partitions; values <= 1 mean a
	// single partition, which behaves exactly like the pre-sharding
	// engine. An existing on-disk layout always wins over this value:
	// a WAL file opens as one shard and a directory opens with its
	// MANIFEST's count, so reopening never re-routes keys away from
	// the segment that holds their history.
	Shards int
	// Metrics, when non-nil, receives the engine's kvstore_* series
	// (per-shard op counts, WAL fsync latency, compactions, WAL size,
	// version-chain lengths, vacuumed versions).
	// Nil disables instrumentation entirely — the hot paths then touch
	// only nil no-op series.
	Metrics *obs.Registry
	// Retention is an opt-in wall-clock window for time-travel reads
	// nobody pinned: versions older than the newest one at (now −
	// Retention) are reclaimable by the write-path trim and by Vacuum.
	// Zero (DefaultRetention) means no window — the reclaim horizon is
	// min(pin floor, vacuum watermark), and an unpinned as-of read
	// below it fails with ErrBelowHorizon.
	Retention time.Duration
}

// Store is a concurrent, versioned, ordered key-value store with
// multiple named tables, hash-partitioned across independent shards.
// Single-key operations are linearizable (each key lives in exactly
// one partition); Scan merges the per-partition trees into one
// key-ordered result. Every committed mutation carries a store-wide
// monotonic commit timestamp, and each key keeps a short chain of the
// versions a pin, the vacuum watermark or the retention window can
// still see, so GetAsOf/ScanAsOf serve consistent reads at any ts
// above the reclaim horizon.
type Store struct {
	parts []*partition

	// clock is the last issued commit timestamp (UnixNano domain, CAS
	// advanced — the same discipline as the oracle's Local source, so
	// oracle-issued snapshot timestamps are directly comparable).
	clock     atomic.Int64
	retention time.Duration

	// Pinned snapshots: vacuum and the write-path trim never reclaim a
	// version the oldest pin can still see. pinFloor caches the min
	// active pin (noFloor when none) so the hot path reads one atomic.
	pinMu    sync.Mutex
	pinned   map[int64]int
	pinFloor atomic.Int64

	// extFloor is the externally published min-active-ts watermark
	// (SetVacuumFloor) — the txn layer's oldest snapshot reader.
	extFloor atomic.Int64
}

// newStore builds the shared store shell (clock, pins, retention).
func newStore(shards int, retention time.Duration) *Store {
	s := &Store{parts: make([]*partition, shards), retention: max(retention, 0), pinned: make(map[int64]int)}
	s.pinFloor.Store(noFloor)
	s.extFloor.Store(noFloor)
	return s
}

// nextTS issues the next commit timestamp: wall-clock nanoseconds,
// bumped to stay strictly monotonic across the whole store.
func (s *Store) nextTS() int64 {
	for {
		now := time.Now().UnixNano()
		last := s.clock.Load()
		if now <= last {
			now = last + 1
		}
		if s.clock.CompareAndSwap(last, now) {
			return now
		}
	}
}

// advanceTS bumps the clock to at least ts (replay, ingest).
func (s *Store) advanceTS(ts int64) {
	for {
		last := s.clock.Load()
		if ts <= last || s.clock.CompareAndSwap(last, ts) {
			return
		}
	}
}

// SnapshotTS draws a fresh snapshot timestamp: every commit already
// published is ≤ the returned ts and every later commit is > it, so
// reads at this ts form a stable consistent cut.
func (s *Store) SnapshotTS() int64 { return s.nextTS() }

// Pin freezes a snapshot: it draws a snapshot ts and holds the vacuum
// floor at it until the returned release is called, guaranteeing
// every version visible at that ts survives trims and Vacuum.
// Release is idempotent.
func (s *Store) Pin() (int64, func()) {
	s.pinMu.Lock()
	ts := s.nextTS()
	s.pinned[ts]++
	s.recomputePinFloorLocked()
	s.pinMu.Unlock()
	var once sync.Once
	return ts, func() {
		once.Do(func() {
			s.pinMu.Lock()
			if n := s.pinned[ts]; n <= 1 {
				delete(s.pinned, ts)
			} else {
				s.pinned[ts] = n - 1
			}
			s.recomputePinFloorLocked()
			s.pinMu.Unlock()
		})
	}
}

func (s *Store) recomputePinFloorLocked() {
	floor := noFloor
	for ts := range s.pinned {
		if ts < floor {
			floor = ts
		}
	}
	s.pinFloor.Store(floor)
}

// SetVacuumFloor publishes the min-active-ts watermark from an outer
// coordination layer (the txn manager's oldest snapshot reader):
// vacuum and the write-path trim keep every version visible at or
// after ts. A ts ≤ 0 clears the watermark.
func (s *Store) SetVacuumFloor(ts int64) {
	if ts <= 0 {
		ts = noFloor
	}
	s.extFloor.Store(ts)
}

// cutTS computes the reclaim horizon as of now: versions strictly
// older than the newest one ≤ the cut are reclaimable. The cut never
// passes a pinned snapshot or the external watermark; with neither and
// no retention window it is now, so an overwrite leaves only the head.
func (s *Store) cutTS(now int64) int64 {
	cut := now - int64(s.retention)
	if pf := s.pinFloor.Load(); pf < cut {
		cut = pf
	}
	if ef := s.extFloor.Load(); ef < cut {
		cut = ef
	}
	return cut
}

// Open creates or reopens a store. When opts.Path names an existing
// WAL layout the store replays every segment to rebuild its state,
// routing each record to its partition by key hash.
func Open(opts Options) (*Store, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	if opts.Path == "" {
		s := newStore(shards, opts.Retention)
		for i := range s.parts {
			s.parts[i] = newPartition(nil, s)
		}
		s.instrument(opts.Metrics)
		return s, nil
	}

	// Resolve the on-disk layout. An existing layout wins over
	// opts.Shards so reopening a store never re-hashes keys into a
	// segment that does not hold their history.
	dirMode := shards > 1
	if fi, err := os.Stat(opts.Path); err == nil {
		dirMode = fi.IsDir()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("kvstore: %w", err)
	}

	var segments []string
	if dirMode {
		if err := os.MkdirAll(opts.Path, 0o755); err != nil {
			return nil, fmt.Errorf("kvstore: %w", err)
		}
		n, err := loadOrInitManifest(filepath.Join(opts.Path, manifestName), shards)
		if err != nil {
			return nil, err
		}
		shards = n
		for i := 0; i < shards; i++ {
			segments = append(segments, filepath.Join(opts.Path, fmt.Sprintf("wal-%d.log", i)))
		}
	} else {
		shards = 1
		segments = []string{opts.Path}
	}

	s := newStore(shards, opts.Retention)
	for i := range s.parts {
		s.parts[i] = newPartition(nil, s)
	}
	// Recovery order: segments replay in ascending shard index. Each
	// record routes by key hash, so with a stable shard count segment
	// i rebuilds partition i; per-key history lives in one segment,
	// keeping blind replay order-correct. Records replay in append
	// order, which is commit-ts order per partition, so chains rebuild
	// newest-at-head exactly as they were written.
	var maxTS int64
	for i, path := range segments {
		w, err := openWAL(path, opts.SyncWrites)
		if err != nil {
			s.closePartial()
			return nil, err
		}
		if err := w.replay(func(rec walRecord) error {
			if rec.CommitTS > maxTS {
				maxTS = rec.CommitTS
			}
			if rec.Op == walMark {
				return s.parts[i].applyReplay(rec) // the segment's own partition's
			}
			return s.part(rec.Key).applyReplay(rec)
		}); err != nil {
			w.close()
			s.closePartial()
			return nil, fmt.Errorf("kvstore: replaying %s: %w", path, err)
		}
		s.parts[i].wal = w
	}
	// Commits after recovery must stay above everything replayed.
	s.advanceTS(maxTS)
	// A compaction may have dropped deleted keys from the log, and the
	// recovered index drops the ones whose tombstone is at or below the
	// horizon, so it cannot vouch that a key it lacks was absent before
	// this open.
	opened := s.nextTS()
	for _, p := range s.parts {
		p.purgeTS.Store(opened)
	}
	// Expose the recovered trees to the lock-free read path, then purge
	// the keys replay rebuilt with a tombstone head at the horizon: a
	// restart brings back no delete a purge already took.
	for _, p := range s.parts {
		p.publishAll()
		p.vacuum(s.cutTS(opened), false)
	}
	s.instrument(opts.Metrics)
	return s, nil
}

// closePartial releases WAL handles opened before an Open failure.
func (s *Store) closePartial() {
	for _, p := range s.parts {
		if p.wal != nil {
			p.wal.close()
		}
	}
}

// loadOrInitManifest reads the shard count pinned in a sharded
// directory, writing one with the requested count on first open.
func loadOrInitManifest(path string, shards int) (int, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return 0, fmt.Errorf("kvstore: writing manifest: %w", err)
		}
		if _, err := fmt.Fprintf(f, "shards=%d\n", shards); err != nil {
			f.Close()
			return 0, fmt.Errorf("kvstore: writing manifest: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return 0, fmt.Errorf("kvstore: writing manifest: %w", err)
		}
		return shards, f.Close()
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: reading manifest: %w", err)
	}
	val, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "shards=")
	if !ok {
		return 0, fmt.Errorf("kvstore: malformed manifest %s: %q", path, b)
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("kvstore: malformed manifest %s: %q", path, b)
	}
	return n, nil
}

// OpenMemory returns a volatile single-shard in-memory store. One
// partition preserves the pre-sharding semantics this constructor has
// always had — Scan and ForEach are atomic snapshots of the whole
// table. Use OpenMemoryShards (or Open) to opt into sharding.
func OpenMemory() *Store {
	return OpenMemoryShards(1)
}

// OpenMemoryShards returns a volatile in-memory store with n hash
// partitions (n <= 1 means one). With multiple shards, Scan snapshots
// are consistent per partition but not atomic across partitions; see
// Store.Scan.
func OpenMemoryShards(n int) *Store {
	s, _ := Open(Options{Shards: n}) // in-memory open cannot fail
	return s
}

// Shards returns the number of hash partitions.
func (s *Store) Shards() int { return len(s.parts) }

// shardOf hashes key with FNV-1a and reduces it to a partition index.
func shardOf(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// part routes a key to its partition.
func (s *Store) part(key string) *partition {
	if len(s.parts) == 1 {
		return s.parts[0]
	}
	return s.parts[shardOf(key, len(s.parts))]
}

// Get returns the record under table/key. The read is wait-free and
// allocation-free: it traverses the partition's atomically published
// snapshot with no lock and returns the engine-owned immutable record
// without cloning (see the VersionedRecord immutability contract).
func (s *Store) Get(table, key string) (*VersionedRecord, error) {
	return s.part(key).get(table, key, readAt{ts: headTS})
}

// GetAsOf returns the newest version of table/key with commit ts ≤
// ts (a time-travel read). It briefly takes the partition's read lock
// to collect the published root — guaranteeing every commit ≤ a
// previously drawn SnapshotTS is visible — then walks the immutable
// chain lock-free. A tombstone at or before ts reads as not found. A
// read whose version at ts has been reclaimed fails with
// ErrBelowHorizon; callers wanting a stable horizon should Pin first.
func (s *Store) GetAsOf(table, key string, ts int64) (*VersionedRecord, error) {
	return s.part(key).get(table, key, readAt{ts: ts})
}

// Put unconditionally stores fields under table/key (insert or full
// replace) and returns the new version.
func (s *Store) Put(table, key string, fields map[string][]byte) (uint64, error) {
	return s.PutIfVersion(table, key, fields, AnyVersion)
}

// Insert stores fields under table/key only when the key does not
// already exist.
func (s *Store) Insert(table, key string, fields map[string][]byte) (uint64, error) {
	return s.PutIfVersion(table, key, fields, MustNotExist)
}

// PutIfVersion stores fields under table/key when the current version
// matches expect: AnyVersion always matches, MustNotExist matches
// only a missing key, any other value must equal the stored version.
// It returns the new version, or ErrVersionMismatch / ErrExists.
func (s *Store) PutIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	return s.part(key).apply(Mutation{Op: MutPut, Table: table, Key: key, Fields: fields, Expect: expect})
}

// Update merges fields into the existing record under table/key and
// returns the new version; the key must exist.
func (s *Store) Update(table, key string, fields map[string][]byte) (uint64, error) {
	return s.part(key).apply(Mutation{Op: MutUpdate, Table: table, Key: key, Fields: fields})
}

// Delete removes table/key; it returns ErrNotFound when absent.
func (s *Store) Delete(table, key string) error {
	return s.DeleteIfVersion(table, key, AnyVersion)
}

// DeleteIfVersion removes table/key when its version matches expect
// (AnyVersion always matches).
func (s *Store) DeleteIfVersion(table, key string, expect uint64) error {
	_, err := s.part(key).apply(Mutation{Op: MutDelete, Table: table, Key: key, Expect: expect})
	return err
}

// Scan returns up to count records with key ≥ startKey in key order,
// k-way merging the per-partition trees. A count < 0 means no limit.
// The scan is a true multi-partition snapshot read: one consistent cut
// of every partition's published root is collected (see
// snapshotTable), then the immutable trees are merged entirely
// lock-free, so the result is an atomic point-in-time view of the
// whole table even while writers and Compact run. Returned records are
// engine-owned immutable snapshots — never mutate them.
func (s *Store) Scan(table, startKey string, count int) ([]VersionedKV, error) {
	return s.scan(table, startKey, count, readAt{ts: headTS})
}

// ScanAsOf returns up to count records with key ≥ startKey as they
// stood at ts, k-way merging the per-partition chains. The consistent
// cut property of Scan extends through time: the roots are collected
// under every partition's read lock (so all commits ≤ ts are
// published), then each key resolves to its newest version ≤ ts
// entirely lock-free — writers are never blocked by the walk itself.
func (s *Store) ScanAsOf(table, startKey string, count int, ts int64) ([]VersionedKV, error) {
	return s.scan(table, startKey, count, readAt{ts: ts})
}

// ScanVersionsAsOf is ScanAsOf with tombstones included: each key
// resolves to its newest version ≤ ts even when that version records a
// delete. No product code reads deletes (a migration copy lands on a
// dropped slot and carries heads only); the method stays because the
// benchmark harness's engine wrapper forwards it. Ordinary readers want
// ScanAsOf.
func (s *Store) ScanVersionsAsOf(table, startKey string, count int, ts int64) ([]VersionedKV, error) {
	return s.scan(table, startKey, count, readAt{ts: ts, tombstones: true})
}

// scan collects what merge visits, stopping it at count.
func (s *Store) scan(table, startKey string, count int, at readAt) ([]VersionedKV, error) {
	if count == 0 {
		return nil, nil
	}
	var out []VersionedKV
	if n := min(count, s.Len(table)); n > 0 {
		out = make([]VersionedKV, 0, n)
	}
	err := s.merge(table, startKey, at, func(key string, rec *VersionedRecord) bool {
		out = append(out, VersionedKV{Key: key, Record: rec})
		return len(out) != count
	})
	return out, err
}

// ForEach visits every record of table in key order. The callback
// receives a copy of each record with Fields decoded (values still
// point into the engine's image: read-only), for callers that read the
// map. The visit is one consistent snapshot of the whole table: a
// single consistent cut of the partitions' published roots is
// collected, then iteration runs entirely lock-free, so long
// validation scans (the CEW check phase) never block writers.
func (s *Store) ForEach(table string, fn func(key string, rec *VersionedRecord) bool) error {
	return s.merge(table, "", readAt{ts: headTS}, func(key string, rec *VersionedRecord) bool {
		return fn(key, rec.withFields())
	})
}

// Len returns the number of records in table.
func (s *Store) Len(table string) int {
	total := 0
	for _, p := range s.parts {
		total += p.len(table)
	}
	return total
}

// Tables returns the names of all tables that have ever been written.
func (s *Store) Tables() []string {
	seen := map[string]bool{}
	var names []string
	for _, p := range s.parts {
		for _, n := range p.tableNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Sync flushes every WAL segment to stable storage.
func (s *Store) Sync() error {
	for _, p := range s.parts {
		if err := p.sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every partition. Further operations return
// ErrClosed.
func (s *Store) Close() error {
	var first error
	for _, p := range s.parts {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
