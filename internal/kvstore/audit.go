package kvstore

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// AuditEngine is a test-only poisoning wrapper enforcing the engine's
// immutability contract: it fingerprints every record it hands out
// from Get, BatchGet, Scan and ForEach, and Verify fails if any caller
// mutated one afterwards. Wrap an engine with NewAuditEngine, drive a
// binding or workload over it, then call Verify — any layer that edits
// an engine-owned record in place (instead of copying first) is
// caught with the table/key it corrupted. ForEach hands out copies, so
// what it audits is the image their values point into. The wrapper
// serializes its
// bookkeeping and is not meant for performance runs.
type AuditEngine struct {
	Engine

	mu      sync.Mutex
	handed  []auditEntry
	tracked map[*VersionedRecord]bool
}

type auditEntry struct {
	rec        *VersionedRecord
	sum        uint64
	table, key string
}

// NewAuditEngine wraps inner, recording every record it returns.
func NewAuditEngine(inner Engine) *AuditEngine {
	return &AuditEngine{Engine: inner, tracked: make(map[*VersionedRecord]bool)}
}

// fingerprint hashes a record's version and its canonical image.
func fingerprint(rec *VersionedRecord) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v=%d;", rec.Version)
	h.Write(rec.Image())
	return h.Sum64()
}

func (a *AuditEngine) record(rec *VersionedRecord, table, key string) {
	if rec == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tracked[rec] {
		return
	}
	a.tracked[rec] = true
	a.handed = append(a.handed, auditEntry{rec: rec, sum: fingerprint(rec), table: table, key: key})
}

func (a *AuditEngine) Get(table, key string) (*VersionedRecord, error) {
	rec, err := a.Engine.Get(table, key)
	a.record(rec, table, key)
	return rec, err
}

func (a *AuditEngine) BatchGet(reqs []GetReq) []GetResult {
	out := a.Engine.BatchGet(reqs)
	for i, r := range out {
		a.record(r.Record, reqs[i].Table, reqs[i].Key)
	}
	return out
}

func (a *AuditEngine) Scan(table, startKey string, count int) ([]VersionedKV, error) {
	kvs, err := a.Engine.Scan(table, startKey, count)
	for _, kv := range kvs {
		a.record(kv.Record, table, kv.Key)
	}
	return kvs, err
}

func (a *AuditEngine) GetAsOf(table, key string, ts int64) (*VersionedRecord, error) {
	rec, err := a.Engine.GetAsOf(table, key, ts)
	a.record(rec, table, key)
	return rec, err
}

func (a *AuditEngine) ForEach(table string, fn func(key string, rec *VersionedRecord) bool) error {
	return a.Engine.ForEach(table, func(key string, rec *VersionedRecord) bool {
		a.record(rec, table, key)
		return fn(key, rec)
	})
}

// Verify re-fingerprints every handed-out record and returns an error
// naming the first one a caller mutated (nil when the contract held).
func (a *AuditEngine) Verify() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.handed {
		if fingerprint(e.rec) != e.sum {
			return fmt.Errorf("kvstore: record %s/%s (version %d) was mutated after the engine handed it out — callers must copy before editing", e.table, e.key, e.rec.Version)
		}
	}
	return nil
}

// Handed reports how many distinct records the wrapper is tracking
// (so tests can assert the audit actually observed traffic).
func (a *AuditEngine) Handed() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.handed)
}
