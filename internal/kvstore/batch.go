package kvstore

import "sync"

// Multi-key engine operations. A batch is the engine-side half of a
// request frame (kvwire.Core runs a frame's runs of two gets or more,
// and every run of mutations — a REST write route's included — as
// BatchGet/BatchApply calls; a run of one get is a Get) and of
// percolator's batched
// prewrite: the partitioned store executes the whole group with one
// lock acquisition per touched partition — concurrent across
// partitions — instead of one per key.

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
// order. Requests are grouped per partition and the groups run
// concurrently (fanOut); each reads like Get, taking no lock. Missing
// keys yield per-item ErrNotFound.
func (s *Store) BatchGet(reqs []GetReq) []GetResult {
	return s.batchGet(reqs, readAt{ts: headTS})
}

// BatchGetAsOf is BatchGet at a snapshot timestamp: every requested
// record resolves through its version chain to the newest version ≤
// ts. Grouping and concurrency match BatchGet; each partition's
// snapshots are collected as GetAsOf collects them, so a previously
// drawn SnapshotTS is a stable cut.
func (s *Store) BatchGetAsOf(reqs []GetReq, ts int64) []GetResult {
	return s.batchGet(reqs, readAt{ts: ts})
}

func (s *Store) batchGet(reqs []GetReq, at readAt) []GetResult {
	out := make([]GetResult, len(reqs))
	shard := func(i int) int { return shardOf(reqs[i].Key, len(s.parts)) }
	if p := s.inline(len(reqs), shard); p != nil {
		p.getBatch(reqs, nil, out, at)
		return out
	}
	s.fanOut(len(reqs), shard, func(p *partition, idx []int) error {
		p.getBatch(reqs, idx, out, at)
		return nil
	})
	return out
}

// BatchApply executes every mutation, returning results in request
// order. Mutations are grouped per partition; each group is applied in
// one write section — one lock acquisition, one WAL append per item
// and a single durability wait for the group's last frame — and groups
// run concurrently across partitions. Items within one partition apply
// in request order; per-item errors (version mismatches, missing keys)
// never abort the rest of the batch.
//
// The Engine durability caveat applies per item: an item whose WAL
// append succeeded but whose group sync failed is "not known durable",
// not rolled back.
func (s *Store) BatchApply(muts []Mutation) []MutResult {
	out := make([]MutResult, len(muts))
	shard := func(i int) int { return shardOf(muts[i].Key, len(s.parts)) }
	if p := s.inline(len(muts), shard); p != nil {
		p.applyBatch(muts, nil, out)
		return out
	}
	s.fanOut(len(muts), shard, func(p *partition, idx []int) error {
		p.applyBatch(muts, idx, out)
		return nil
	})
	return out
}

// inline returns the partition that serves the whole of a call of
// n > 0 items on the caller, with idx nil standing for every item (see
// each): a one-partition store's only partition, without calling
// shard, or a one-item call's own. It returns nil when the call fans
// out. BatchGet and BatchApply ask it before they build the closure
// fanOut takes, which escapes through fanOut's goroutines: an inline
// call allocates none.
func (s *Store) inline(n int, shard func(i int) int) *partition {
	switch {
	case n == 0:
		return nil
	case len(s.parts) == 1:
		return s.parts[0]
	case n == 1:
		return s.parts[shard(0)]
	}
	return nil
}

// fanOut is how a multi-key call reaches its partitions: it groups the
// indices of n items by the partition shard(i) names, in request
// order, and runs fn on each partition's share, every share but the
// last touched partition's on a goroutine of its own and that one on
// the caller, so a batch that touches one partition starts none. It
// returns the first error by partition order. A call that inline
// serves whole runs fn on that partition alone, with idx nil.
func (s *Store) fanOut(n int, shard func(i int) int, fn func(p *partition, idx []int) error) error {
	if n == 0 {
		return nil
	}
	if p := s.inline(n, shard); p != nil {
		return fn(p, nil)
	}
	type share struct {
		idx []int
		err error
	}
	shares := make([]share, len(s.parts))
	last := 0
	for i := 0; i < n; i++ {
		sh := shard(i)
		shares[sh].idx = append(shares[sh].idx, i)
		last = max(last, sh)
	}
	var wg sync.WaitGroup
	for i := range shares[:last] {
		if shares[i].idx == nil {
			continue
		}
		wg.Add(1)
		go func(p *partition, sh *share) {
			defer wg.Done()
			sh.err = fn(p, sh.idx)
		}(s.parts[i], &shares[i])
	}
	shares[last].err = fn(s.parts[last], shares[last].idx)
	wg.Wait()
	for _, sh := range shares {
		if sh.err != nil {
			return sh.err
		}
	}
	return nil
}

// getBatch serves the given request indices (nil = all) from this
// partition as at reads them. Each table's snapshot is collected once
// per run of same-table requests, so the common single-table batch
// reads one point-in-time view of the partition.
func (p *partition) getBatch(reqs []GetReq, idx []int, out []GetResult, at readAt) {
	n := len(idx)
	if idx == nil {
		n = len(reqs)
	}
	p.metrics.gets.Add(int64(n))
	closed := p.closed.Load()
	var (
		curTable string
		curSnap  *treeSnapshot
		have     bool
	)
	each(len(reqs), idx, func(i int) {
		r := reqs[i]
		if closed {
			out[i] = GetResult{Err: ErrClosed}
			return
		}
		if !have || r.Table != curTable {
			curTable, curSnap, have = r.Table, p.snapFor(r.Table, at), true
		}
		v, err := p.read(curSnap, r.Table, r.Key, at)
		out[i] = GetResult{Record: v, Err: err}
	})
}

// applyBatch applies the given mutation indices (nil = all) to this
// partition in one write section.
func (p *partition) applyBatch(muts []Mutation, idx []int, out []MutResult) {
	ws, err := p.begin()
	if err != nil {
		each(len(muts), idx, func(i int) { out[i] = MutResult{Err: err} })
		return
	}
	each(len(muts), idx, func(i int) {
		ver, err := p.applyOneLocked(&ws, muts[i])
		out[i] = MutResult{Version: ver, Err: err}
	})
	ws.end()
}
