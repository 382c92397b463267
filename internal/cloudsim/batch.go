package cloudsim

import (
	"context"
	"fmt"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
)

// Batch economics: a cloud store bills per request, so a multi-key
// batch API is charged as ONE request — one service-latency draw, one
// rate-limit token, one entry in the read/write stats — regardless of
// how many keys it touches. That is exactly why batching changes the
// Figure 2/3 curves: the container's request-rate ceiling binds on
// batches, not keys.

// BatchGet answers a multi-key read as one simulated read request.
// The returned error is the admission failure of the whole request
// (rate-limit cancellation); per-key misses are inside the results.
func (s *Store) BatchGet(ctx context.Context, reqs []kvstore.GetReq) ([]kvstore.GetResult, error) {
	if err := s.simulate(ctx, s.cfg.ReadLatency); err != nil {
		return nil, err
	}
	s.reads.Add(1)
	s.mReads.Inc()
	return s.inner.BatchGet(reqs), nil
}

// BatchApply applies a multi-key mutation batch as one simulated
// write request.
func (s *Store) BatchApply(ctx context.Context, muts []kvstore.Mutation) ([]kvstore.MutResult, error) {
	if err := s.simulate(ctx, s.cfg.WriteLatency); err != nil {
		return nil, err
	}
	s.writes.Add(1)
	s.mWrites.Inc()
	return s.inner.BatchApply(muts), nil
}

// ExecBatch implements db.BatchDB with the same run-splitting as the
// embedded binding: consecutive reads share one BatchGet charge,
// consecutive writes one BatchApply charge. Non-blind updates need
// the cloud client's read-merge-write, so a write run containing
// updates pays one extra read charge for the pre-read — still two
// requests where the single-op path pays 2N.
func (b *Binding) ExecBatch(ctx context.Context, ops []db.BatchOp) []db.BatchResult {
	out := make([]db.BatchResult, len(ops))
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && (ops[hi].Op == db.OpRead) == (ops[lo].Op == db.OpRead) {
			hi++
		}
		if ops[lo].Op == db.OpRead {
			b.execReadRun(ctx, ops[lo:hi], out[lo:hi])
		} else {
			b.execWriteRun(ctx, ops[lo:hi], out[lo:hi])
		}
		lo = hi
	}
	return out
}

func (b *Binding) execReadRun(ctx context.Context, ops []db.BatchOp, out []db.BatchResult) {
	reqs := make([]kvstore.GetReq, len(ops))
	for i, op := range ops {
		reqs[i] = kvstore.GetReq{Table: op.Table, Key: op.Key}
	}
	results, err := b.store.BatchGet(ctx, reqs)
	if err != nil {
		for i := range out {
			out[i] = db.BatchResult{Err: err}
		}
		return
	}
	for i, r := range results {
		if r.Err != nil {
			out[i] = db.BatchResult{Err: r.Err}
			continue
		}
		out[i] = db.BatchResult{Record: r.Record.Project(ops[i].Fields)}
	}
}

func (b *Binding) execWriteRun(ctx context.Context, ops []db.BatchOp, out []db.BatchResult) {
	// Cloud stores have no server-side merge: updates are
	// read-merge-write unless BlindUpdates. The pre-read for every
	// update in the run is one batched read request.
	merged := make([]db.Record, len(ops))
	if !b.BlindUpdates {
		var updIdx []int
		var reqs []kvstore.GetReq
		for i, op := range ops {
			if op.Op == db.OpUpdate {
				updIdx = append(updIdx, i)
				reqs = append(reqs, kvstore.GetReq{Table: op.Table, Key: op.Key})
			}
		}
		if len(reqs) > 0 {
			results, err := b.store.BatchGet(ctx, reqs)
			if err != nil {
				for i := range out {
					out[i] = db.BatchResult{Err: err}
				}
				return
			}
			for j, r := range results {
				i := updIdx[j]
				if r.Err != nil {
					out[i] = db.BatchResult{Err: r.Err}
					continue
				}
				m := r.Record.Project(nil)
				for f, v := range ops[i].Values {
					m[f] = v
				}
				merged[i] = m
			}
		}
	}
	muts := make([]kvstore.Mutation, 0, len(ops))
	idx := make([]int, 0, len(ops))
	for i, op := range ops {
		if out[i].Err != nil { // failed pre-read, already reported
			continue
		}
		var m kvstore.Mutation
		switch op.Op {
		case db.OpUpdate:
			values := op.Values
			if merged[i] != nil {
				values = merged[i]
			}
			m = kvstore.Mutation{Op: kvstore.MutPut, Table: op.Table, Key: op.Key, Fields: values, Expect: kvstore.AnyVersion}
		case db.OpInsert:
			m = kvstore.Mutation{Op: kvstore.MutPut, Table: op.Table, Key: op.Key, Fields: op.Values, Expect: kvstore.AnyVersion}
		case db.OpDelete:
			m = kvstore.Mutation{Op: kvstore.MutDelete, Table: op.Table, Key: op.Key, Expect: kvstore.AnyVersion}
		default:
			out[i] = db.BatchResult{Err: fmt.Errorf("%w: cannot batch %v", db.ErrNotSupported, op.Op)}
			continue
		}
		muts = append(muts, m)
		idx = append(idx, i)
	}
	if len(muts) == 0 {
		return
	}
	results, err := b.store.BatchApply(ctx, muts)
	if err != nil {
		for _, i := range idx {
			out[i] = db.BatchResult{Err: err}
		}
		return
	}
	for j, r := range results {
		out[idx[j]] = db.BatchResult{Err: r.Err}
	}
}

var _ db.BatchDB = (*Binding)(nil)
