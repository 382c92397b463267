package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
	"ycsbt/internal/properties"
)

// Binding adapts a simulated cloud container to the YCSB+T db.DB
// interface for direct, non-transactional access — the baseline of
// Figure 3 ("non-transactional access to the database scales from
// 81.57 operations per second for 1 thread to 794.97 for 16").
type Binding struct {
	db.NoTransactions
	store *Store
	owns  bool

	// BlindUpdates makes Update issue a single unconditional PUT of
	// the given values instead of read-merge-write. Correct only when
	// the workload writes every field on update (writeallfields, as
	// CEW does); it halves the request count of an update, matching
	// how a raw cloud client behaves. Also settable via the
	// "cloudsim.blindupdates" property.
	BlindUpdates bool
}

// NewBinding wraps an existing simulated store.
func NewBinding(s *Store) *Binding { return &Binding{store: s} }

func init() {
	db.Register("cloudsim", func() (db.DB, error) { return &Binding{}, nil })
}

// Init builds a store from properties when none was supplied:
// "cloudsim.preset" (was|gcs) then individual overrides
// "cloudsim.readlatency_us", "cloudsim.writelatency_us",
// "cloudsim.ratelimit", "cloudsim.poolsize",
// "cloudsim.contention_us".
func (b *Binding) Init(p *properties.Properties) error {
	if b.store != nil {
		return nil
	}
	var cfg Config
	switch preset := p.GetString("cloudsim.preset", "was"); preset {
	case "was":
		cfg = WASPreset()
	case "gcs":
		cfg = GCSPreset()
	default:
		return fmt.Errorf("cloudsim: unknown preset %q", preset)
	}
	cfg.ReadLatency = time.Duration(p.GetInt64("cloudsim.readlatency_us", cfg.ReadLatency.Microseconds())) * time.Microsecond
	cfg.WriteLatency = time.Duration(p.GetInt64("cloudsim.writelatency_us", cfg.WriteLatency.Microseconds())) * time.Microsecond
	cfg.RateLimit = p.GetFloat("cloudsim.ratelimit", cfg.RateLimit)
	cfg.PoolSize = p.GetInt("cloudsim.poolsize", cfg.PoolSize)
	cfg.ContentionPenalty = time.Duration(p.GetInt64("cloudsim.contention_us", cfg.ContentionPenalty.Microseconds())) * time.Microsecond
	cfg.Shards = p.GetInt("kvstore.shards", kvstore.DefaultShards)
	b.BlindUpdates = p.GetBool("cloudsim.blindupdates", false)
	cfg.Metrics = obs.Enabled(p.GetBool("obs.enabled", false))
	b.store = New(cfg)
	b.owns = true
	return nil
}

// Cleanup closes the store when this binding created it.
func (b *Binding) Cleanup() error {
	if b.owns && b.store != nil {
		return b.store.Close()
	}
	return nil
}

// Store exposes the simulated container (for validation and stats).
func (b *Binding) Store() *Store { return b.store }

func translate(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, kvstore.ErrNotFound):
		return fmt.Errorf("%w: %v", db.ErrNotFound, err)
	case errors.Is(err, kvstore.ErrVersionMismatch), errors.Is(err, kvstore.ErrExists):
		return fmt.Errorf("%w: %v", db.ErrConflict, err)
	default:
		return err
	}
}

// Read implements db.DB.
func (b *Binding) Read(ctx context.Context, table, key string, fields []string) (db.Record, error) {
	rec, err := b.store.Get(ctx, table, key)
	if err != nil {
		return nil, translate(err)
	}
	return rec.Project(fields), nil
}

// Scan implements db.DB.
func (b *Binding) Scan(ctx context.Context, table, startKey string, count int, fields []string) ([]db.KV, error) {
	kvs, err := b.store.Scan(ctx, table, startKey, count)
	if err != nil {
		return nil, translate(err)
	}
	out := make([]db.KV, 0, len(kvs))
	for _, kv := range kvs {
		out = append(out, db.KV{Key: kv.Key, Record: kv.Record.Project(fields)})
	}
	return out, nil
}

// Update implements db.DB with read-merge-write (cloud stores have no
// server-side merge; this is what a raw client does, racily), or a
// single blind PUT when BlindUpdates is set.
func (b *Binding) Update(ctx context.Context, table, key string, values db.Record) error {
	if b.BlindUpdates {
		_, err := b.store.Put(ctx, table, key, values, kvstore.AnyVersion)
		return translate(err)
	}
	cur, err := b.store.Get(ctx, table, key)
	if err != nil {
		return translate(err)
	}
	merged := cur.Project(nil)
	for f, v := range values {
		merged[f] = v
	}
	_, err = b.store.Put(ctx, table, key, merged, kvstore.AnyVersion)
	return translate(err)
}

// Insert implements db.DB (unconditional put).
func (b *Binding) Insert(ctx context.Context, table, key string, values db.Record) error {
	_, err := b.store.Put(ctx, table, key, values, kvstore.AnyVersion)
	return translate(err)
}

// Delete implements db.DB.
func (b *Binding) Delete(ctx context.Context, table, key string) error {
	return translate(b.store.Delete(ctx, table, key, kvstore.AnyVersion))
}
