package httpkv

import (
	"context"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
)

// RouterStore adapts a cluster Router to the transaction libraries'
// store interface (txn.Store): versioned gets and conditional writes,
// routed per key across the fleet by the shard map. With it, one
// client-coordinated Cherry-Garcia transaction spans nodes with no
// central coordinator — the transaction's CAS writes land on
// whichever node owns each key, and the commit protocol never needs
// to know the cluster exists. Moved errors (live rebalancing) are
// absorbed by the router's refetch-and-retry before the transaction
// layer sees them; a CAS conflict surfacing after a migration is just
// an ordinary version mismatch, because Ingest preserves record
// versions across the copy.
type RouterStore struct {
	name string
	r    *Router
}

// NewRouterStore wraps the router as a named transaction store.
func NewRouterStore(name string, r *Router) *RouterStore {
	return &RouterStore{name: name, r: r}
}

// Name implements the store interface.
func (s *RouterStore) Name() string { return s.name }

// Get implements the store interface.
func (s *RouterStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	var rec *kvstore.VersionedRecord
	err := s.r.route(ctx, key, func(c *Client) error {
		var err error
		rec, err = c.ReadVersioned(ctx, table, key)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Put implements the store interface (conditional put, routed to the
// key's owner).
func (s *RouterStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	var ver uint64
	err := s.r.route(ctx, key, func(c *Client) error {
		var err error
		ver, err = c.mutate(ctx, kvwire.KindPut, table, key, fields, expect)
		return err
	})
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// Delete implements the store interface.
func (s *RouterStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	return s.r.route(ctx, key, func(c *Client) error {
		_, err := c.mutate(ctx, kvwire.KindDelete, table, key, nil, expect)
		return err
	})
}

// Scan implements the store interface: per-node sorted results merged
// into global key order, like the binding's Scan.
func (s *RouterStore) Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	return scanMerged(ctx, s.r, table, startKey, count, versionedConv)
}
