package httpkv

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/kvwire"
	"ycsbt/internal/properties"
)

// RemoteStore adapts an httpkv server to the transaction libraries'
// store interface (txn.Store / percolator.Store): versioned gets and
// scans plus conditional writes, over the transport the server offers
// (frames when it advertises a listener, REST otherwise). With it, one
// client-coordinated transaction can span stores "deployed in
// different regions" reachable only over the network — the
// heterogeneous-store scenario of Section II-B — with no software on
// the server side beyond the plain key-value interface.
type RemoteStore struct {
	name string
	c    *Client
}

// NewRemoteStore wraps the httpkv server at baseURL as a named
// transaction store, settling its transport with the binding's
// defaults (see Client.Init).
func NewRemoteStore(name, baseURL string, hc *http.Client) (*RemoteStore, error) {
	c := NewClient(baseURL, hc)
	if err := c.Init(properties.New()); err != nil {
		return nil, err
	}
	return &RemoteStore{name: name, c: c}, nil
}

// Name implements the store interface.
func (r *RemoteStore) Name() string { return r.name }

// Get implements the store interface.
func (r *RemoteStore) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	rec, err := r.c.ReadVersioned(ctx, table, key)
	if err != nil {
		return nil, remoteTranslate(err)
	}
	return rec, nil
}

// Put implements the store interface (conditional put).
func (r *RemoteStore) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	ver, err := r.c.mutate(ctx, kvwire.KindPut, table, key, fields, expect)
	return ver, remoteTranslate(err)
}

// Delete implements the store interface.
func (r *RemoteStore) Delete(ctx context.Context, table, key string, expect uint64) error {
	_, err := r.c.mutate(ctx, kvwire.KindDelete, table, key, nil, expect)
	return remoteTranslate(err)
}

// Scan implements the store interface.
func (r *RemoteStore) Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	kvs, err := scanInto(ctx, r.c, table, startKey, count, 0, versionedConv)
	return kvs, remoteTranslate(err)
}

// remoteTranslate maps the client's db-layer sentinels back to the
// kvstore-layer errors the transaction protocols match on.
func remoteTranslate(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, db.ErrNotFound):
		return fmt.Errorf("%w: %v", kvstore.ErrNotFound, err)
	case errors.Is(err, db.ErrConflict):
		return fmt.Errorf("%w: %v", kvstore.ErrVersionMismatch, err)
	default:
		return err
	}
}
