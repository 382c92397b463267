package kvstore

// Engine is the versioned ordered-KV contract the rest of the system
// programs against: point gets, conditional puts/deletes on record
// versions (the ETag idiom), ordered scans, full iteration, and
// maintenance hooks. The hash-partitioned Store is the embedded
// implementation; the interface is the seam future engines (an LSM
// variant, a remote store proxy) plug into without touching the
// layers above.
//
// All implementations must make single-key operations linearizable
// and Scan/ForEach results key-ordered.
//
// Immutability contract: records handed out by Get, BatchGet and Scan
// are shared immutable snapshots, not private copies — callers must
// not mutate any byte slice a reader hands out (VersionedRecord.Project
// builds a map the caller owns), and implementations must never edit a
// handed-out record in place. ForEach hands out copies with Fields
// decoded. This is what lets the partitioned store serve reads
// wait-free with zero allocations.
//
// Durability caveat: when a mutation fails in its WAL append (e.g. a
// failed fsync under SyncWrites), it is not applied in memory, but its
// frame may already be in the log, or in the buffer a later append
// flushes, so it can survive a restart. An error from a mutation
// means "not known durable", not "rolled back".
type Engine interface {
	// Point operations.
	Get(table, key string) (*VersionedRecord, error)
	Put(table, key string, fields map[string][]byte) (uint64, error)
	Insert(table, key string, fields map[string][]byte) (uint64, error)
	PutIfVersion(table, key string, fields map[string][]byte, expect uint64) (uint64, error)
	Update(table, key string, fields map[string][]byte) (uint64, error)
	Delete(table, key string) error
	DeleteIfVersion(table, key string, expect uint64) error

	// Multi-key operations. Results are positional (out[i] answers
	// in[i]); per-item failures never abort the rest of the batch.
	// Implementations should amortize per-call costs across the batch
	// — the partitioned store takes one lock acquisition per touched
	// partition, concurrent across partitions.
	BatchGet(reqs []GetReq) []GetResult
	BatchApply(muts []Mutation) []MutResult

	// Ordered access.
	Scan(table, startKey string, count int) ([]VersionedKV, error)
	ForEach(table string, fn func(key string, rec *VersionedRecord) bool) error

	// Time travel (MVCC). SnapshotTS draws a snapshot timestamp: every
	// already-acknowledged commit is ≤ it and every later commit is >
	// it, so the as-of reads below form a stable consistent cut at
	// that ts. Pin additionally freezes the cut against version
	// reclamation until its release func is called — a read at a merely
	// drawn (unpinned) ts may find its version reclaimed and fail with
	// ErrBelowHorizon unless a retention window covers it. As-of reads
	// resolve each key to its newest version with commit ts ≤ the
	// requested ts; deleted-at-ts keys are not found.
	SnapshotTS() int64
	Pin() (int64, func())
	GetAsOf(table, key string, ts int64) (*VersionedRecord, error)
	BatchGetAsOf(reqs []GetReq, ts int64) []GetResult
	ScanAsOf(table, startKey string, count int, ts int64) ([]VersionedKV, error)
	// ScanVersionsAsOf is ScanAsOf with tombstones included. No product
	// code calls it; it stays only because the benchmark harness's
	// engine wrapper (benchmark/trace.go) forwards it.
	ScanVersionsAsOf(table, startKey string, count int, ts int64) ([]VersionedKV, error)

	// Introspection.
	Len(table string) int
	Tables() []string

	// Maintenance and lifecycle — Ingest and Drop are the
	// shard-migration path. Ingest merges versioned records (preserving
	// Version/CommitTS) into a live table; Drop removes every key keep
	// rejects, chain and all, leaving no tombstone.
	Ingest(table string, kvs []BulkKV) error
	Drop(table string, keep func(key string) bool) (int, error)
	Compact() error
	WALSize() (int64, error)
	Sync() error
	Close() error
}

// The partitioned store is the reference Engine.
var _ Engine = (*Store)(nil)
