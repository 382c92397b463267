package kvstore

import (
	"fmt"
	"sync"
)

// Multi-key engine operations. A batch is the engine-side half of the
// batched request path: the layers above coalesce many logical
// operations into one call, and the partitioned store executes the
// whole group with one lock acquisition and one group-commit wait per
// touched partition — concurrent across partitions — instead of one
// of each per key. That amortization is what lets a fat group commit
// absorb a fat network batch (the paper's Tier 5 observation that
// per-operation round trips dominate transactional overhead).

// GetReq names one record of a batched read.
type GetReq struct {
	Table string
	Key   string
}

// GetResult is the outcome of one GetReq: exactly one of Record and
// Err is set. Batches never fail wholesale on a per-item miss.
type GetResult struct {
	Record *VersionedRecord
	Err    error
}

// MutOp selects the kind of one batched mutation.
type MutOp uint8

const (
	// MutPut stores the full record, conditional on Expect exactly
	// like PutIfVersion (AnyVersion / MustNotExist / exact version).
	MutPut MutOp = iota
	// MutUpdate merges Fields into the existing record (key must
	// exist); Expect is ignored.
	MutUpdate
	// MutDelete removes the record, conditional on Expect exactly like
	// DeleteIfVersion.
	MutDelete
)

// Mutation is one write of a batched apply. The zero value of Expect
// is MustNotExist; callers performing unconditional puts or deletes
// must set Expect to AnyVersion explicitly.
type Mutation struct {
	Op     MutOp
	Table  string
	Key    string
	Fields map[string][]byte
	Expect uint64
}

// MutResult is the outcome of one Mutation: the new record version on
// success (0 for deletes), or the per-item error. A conditional
// failure on one item never aborts the rest of the batch.
type MutResult struct {
	Version uint64
	Err     error
}

// BatchGet reads every requested record, returning results in request
// order. Requests are grouped per partition; each group runs under a
// single read-lock acquisition, and groups run concurrently across
// partitions. Missing keys yield per-item ErrNotFound.
func (s *Store) BatchGet(reqs []GetReq) []GetResult {
	out := make([]GetResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if len(s.parts) == 1 {
		s.parts[0].getBatch(reqs, nil, out)
		return out
	}
	groups := s.groupByShard(len(reqs), func(i int) string { return reqs[i].Key })
	var wg sync.WaitGroup
	for shard, idx := range groups {
		wg.Add(1)
		go func(p *partition, idx []int) {
			defer wg.Done()
			p.getBatch(reqs, idx, out)
		}(s.parts[shard], idx)
	}
	wg.Wait()
	return out
}

// BatchApply executes every mutation, returning results in request
// order. Mutations are grouped per partition; each group is applied
// under a single write-lock acquisition with one WAL append per item
// and a single durability wait for the group's last frame, and groups
// run concurrently across partitions. Items within one partition
// apply in request order; per-item errors (version mismatches,
// missing keys) never abort the rest of the batch.
//
// The Engine durability caveat applies per item: an item whose WAL
// append succeeded but whose group sync failed is "not known durable",
// not rolled back.
func (s *Store) BatchApply(muts []Mutation) []MutResult {
	out := make([]MutResult, len(muts))
	if len(muts) == 0 {
		return out
	}
	if len(s.parts) == 1 {
		s.parts[0].applyBatch(muts, nil, out)
		return out
	}
	groups := s.groupByShard(len(muts), func(i int) string { return muts[i].Key })
	var wg sync.WaitGroup
	for shard, idx := range groups {
		wg.Add(1)
		go func(p *partition, idx []int) {
			defer wg.Done()
			p.applyBatch(muts, idx, out)
		}(s.parts[shard], idx)
	}
	wg.Wait()
	return out
}

// groupByShard buckets item indices 0..n-1 by the partition their key
// hashes to, preserving request order within each bucket.
func (s *Store) groupByShard(n int, keyOf func(int) string) map[int][]int {
	groups := make(map[int][]int, len(s.parts))
	for i := 0; i < n; i++ {
		shard := shardOf(keyOf(i), len(s.parts))
		groups[shard] = append(groups[shard], i)
	}
	return groups
}

// getBatch serves the given request indices (nil = all) from this
// partition with no lock: each table's snapshot is loaded once per run
// of same-table requests, so the common single-table batch reads one
// point-in-time view of the partition.
func (p *partition) getBatch(reqs []GetReq, idx []int, out []GetResult) {
	if idx == nil {
		p.metrics.gets.Add(int64(len(reqs)))
	} else {
		p.metrics.gets.Add(int64(len(idx)))
	}
	if p.closed.Load() {
		each(len(reqs), idx, func(i int) { out[i] = GetResult{Err: ErrClosed} })
		return
	}
	var (
		curTable string
		curSnap  *treeSnapshot
		have     bool
	)
	each(len(reqs), idx, func(i int) {
		if !have || reqs[i].Table != curTable {
			curTable, curSnap, have = reqs[i].Table, p.tableSnap(reqs[i].Table), true
		}
		if curSnap != nil {
			if v := curSnap.get(reqs[i].Key); v != nil && !v.deleted {
				out[i] = GetResult{Record: v}
				return
			}
		}
		out[i] = GetResult{Err: fmt.Errorf("%w: %s/%s", ErrNotFound, reqs[i].Table, reqs[i].Key)}
	})
}

// BatchGetAsOf is BatchGet at a snapshot timestamp: every requested
// record resolves through its version chain to the newest version ≤
// ts. Grouping and concurrency match BatchGet; each partition's
// snapshots are collected under a brief read lock so a previously
// drawn SnapshotTS is a stable cut (see GetAsOf).
func (s *Store) BatchGetAsOf(reqs []GetReq, ts int64) []GetResult {
	out := make([]GetResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if len(s.parts) == 1 {
		s.parts[0].getBatchAsOf(reqs, nil, out, ts)
		return out
	}
	groups := s.groupByShard(len(reqs), func(i int) string { return reqs[i].Key })
	var wg sync.WaitGroup
	for shard, idx := range groups {
		wg.Add(1)
		go func(p *partition, idx []int) {
			defer wg.Done()
			p.getBatchAsOf(reqs, idx, out, ts)
		}(s.parts[shard], idx)
	}
	wg.Wait()
	return out
}

// getBatchAsOf serves the given request indices (nil = all) as of ts.
func (p *partition) getBatchAsOf(reqs []GetReq, idx []int, out []GetResult, ts int64) {
	if idx == nil {
		p.metrics.gets.Add(int64(len(reqs)))
	} else {
		p.metrics.gets.Add(int64(len(idx)))
	}
	if p.closed.Load() {
		each(len(reqs), idx, func(i int) { out[i] = GetResult{Err: ErrClosed} })
		return
	}
	var (
		curTable string
		curSnap  *treeSnapshot
		have     bool
	)
	each(len(reqs), idx, func(i int) {
		if !have || reqs[i].Table != curTable {
			curTable = reqs[i].Table
			p.mu.RLock()
			curSnap = p.tableSnap(curTable)
			p.mu.RUnlock()
			have = true
		}
		v, err := p.readAsOf(curSnap, reqs[i].Table, reqs[i].Key, ts)
		out[i] = GetResult{Record: v, Err: err}
	})
}

// applyBatch applies the given mutation indices (nil = all) to this
// partition: one lock acquisition, one WAL append per item, one
// durability wait for the group's final frame (which, per the WAL's
// in-order group sync, covers every earlier frame of the batch).
func (p *partition) applyBatch(muts []Mutation, idx []int, out []MutResult) {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		each(len(muts), idx, func(i int) { out[i] = MutResult{Err: ErrClosed} })
		return
	}
	w := p.wal // captured under p.mu: compact may swap p.wal after unlock
	var maxSeq uint64
	var syncErrIdx []int // items whose durability rides on the group sync
	var touched []string // tables mutated by this batch (usually one)
	each(len(muts), idx, func(i int) {
		ver, seq, err := p.applyOneLocked(w, muts[i])
		out[i] = MutResult{Version: ver, Err: err}
		if err == nil {
			dup := false
			for _, t := range touched {
				if t == muts[i].Table {
					dup = true
					break
				}
			}
			if !dup {
				touched = append(touched, muts[i].Table)
			}
		}
		if seq != 0 {
			maxSeq = seq
			syncErrIdx = append(syncErrIdx, i)
		}
	})
	// One root swap per touched table: the whole batch becomes visible
	// to the lock-free read path atomically, so a concurrent scan never
	// observes a torn multi-key state within one partition.
	for _, t := range touched {
		p.publishLocked(t, p.tables[t])
	}
	p.mu.Unlock()
	if maxSeq != 0 {
		if err := w.waitDurable(maxSeq); err != nil {
			for _, i := range syncErrIdx {
				out[i] = MutResult{Err: err}
			}
		}
	}
}

// applyOneLocked evaluates and applies one mutation with p.mu held,
// returning the new version and the WAL sequence the caller must wait
// on (0 = no durability wait needed).
func (p *partition) applyOneLocked(w *wal, m Mutation) (uint64, uint64, error) {
	switch m.Op {
	case MutPut:
		p.metrics.puts.Inc()
		return p.putLocked(w, m.Table, m.Key, m.Fields, m.Expect, false)
	case MutUpdate:
		p.metrics.puts.Inc()
		return p.putLocked(w, m.Table, m.Key, m.Fields, AnyVersion, true)
	case MutDelete:
		p.metrics.deletes.Inc()
		seq, err := p.deleteLocked(w, m.Table, m.Key, m.Expect)
		return 0, seq, err
	default:
		return 0, 0, errBadMutOp(m.Op)
	}
}
