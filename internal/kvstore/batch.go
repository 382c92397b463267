package kvstore

import "sync"

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
	s.fanOut(len(reqs), func(i int) int { return shardOf(reqs[i].Key, len(s.parts)) }, func(p *partition, idx []int) error {
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
	s.fanOut(len(muts), func(i int) int { return shardOf(muts[i].Key, len(s.parts)) }, func(p *partition, idx []int) error {
		p.applyBatch(muts, idx, out)
		return nil
	})
	return out
}

// fanOut is how a multi-key call reaches its partitions: it groups the
// indices of n items by the partition shard(i) names, in request
// order, and runs fn on each partition's share on a goroutine of its
// own, returning the first error by partition order. A one-partition
// store runs fn inline with idx nil, which stands for every item (see
// each), without calling shard.
func (s *Store) fanOut(n int, shard func(i int) int, fn func(p *partition, idx []int) error) error {
	if n == 0 {
		return nil
	}
	if len(s.parts) == 1 {
		return fn(s.parts[0], nil)
	}
	type share struct {
		idx []int
		err error
	}
	shares := make([]share, len(s.parts))
	for i := 0; i < n; i++ {
		sh := &shares[shard(i)]
		sh.idx = append(sh.idx, i)
	}
	var wg sync.WaitGroup
	for i := range shares {
		if shares[i].idx == nil {
			continue
		}
		wg.Add(1)
		go func(p *partition, sh *share) {
			defer wg.Done()
			sh.err = fn(p, sh.idx)
		}(s.parts[i], &shares[i])
	}
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
	var logged []int // items whose durability rides on the section's wait
	each(len(muts), idx, func(i int) {
		seq := ws.seq
		ver, err := p.applyOneLocked(&ws, muts[i])
		out[i] = MutResult{Version: ver, Err: err}
		if ws.seq != seq {
			logged = append(logged, i)
		}
	})
	if err := ws.end(nil); err != nil {
		for _, i := range logged {
			out[i] = MutResult{Err: err}
		}
	}
}
