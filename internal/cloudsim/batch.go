package cloudsim

import (
	"context"

	"ycsbt/internal/kvstore"
)

// Batch economics: a cloud store bills per request, so a multi-key
// batch API is charged as ONE request — one service-latency draw, one
// rate-limit token, one entry in the read/write stats — regardless of
// how many keys it touches. Percolator's batched prewrite (one read
// and one conditional put of the whole write set, percolator.BatchStore)
// is the caller: the container's request-rate ceiling binds on those
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
