// Package cloudsim simulates a cloud key-value store container such
// as a Windows Azure Storage (WAS) container or a Google Cloud
// Storage (GCS) bucket, the substrates of the paper's Figure 2 and
// Figure 3 experiments.
//
// The paper measured its client-coordinated transaction library from
// EC2 hosts against real WAS/GCS containers. We do not have those, so
// the simulator reproduces the three mechanisms that give Figure 2
// its shape:
//
//  1. Per-request service latency (reads cheaper than writes): at low
//     thread counts throughput scales linearly with threads because
//     each thread is latency-bound.
//  2. A container request-rate ceiling (token bucket): the paper
//     observes throughput "remains roughly the same" from 16 to 32
//     threads and attributes it to "a bottleneck in the network or
//     the data store container itself" — a request-rate limit.
//  3. Client-side thread contention: beyond the connection-pool size,
//     each in-flight request pays a queueing penalty proportional to
//     the excess concurrency, which reproduces the throughput decline
//     at 64 and 128 threads that the authors attribute to "thread
//     contention".
//
// The store exposes versioned conditional operations (the ETag
// conditional-put idiom both WAS and GCS offer), which is exactly the
// primitive the client-coordinated transaction library requires.
package cloudsim

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ycsbt/internal/kvstore"
	"ycsbt/internal/obs"
)

// Config tunes one simulated store container.
type Config struct {
	// Name identifies the container (e.g. "was-1").
	Name string
	// ReadLatency is the mean service time of a read request.
	ReadLatency time.Duration
	// WriteLatency is the mean service time of a write request.
	WriteLatency time.Duration
	// LatencyJitter is the coefficient of variation of service times
	// (0 = deterministic). Latencies are drawn from a lognormal-like
	// two-point mixture to keep the hot path cheap.
	LatencyJitter float64
	// RateLimit caps the container's requests per second (token
	// bucket); 0 means unlimited. Requests beyond the burst wait for
	// tokens, which produces the 16→32-thread throughput plateau.
	RateLimit float64
	// Burst is the token-bucket burst size; defaults to RateLimit/10.
	Burst float64
	// PoolSize models the client connection pool: in-flight requests
	// beyond this pay ContentionPenalty per excess request.
	PoolSize int
	// ContentionPenalty is the extra latency per in-flight request
	// above PoolSize, modelling client-side thread contention
	// (context switching, lock convoys). Produces the 64/128-thread
	// throughput decline.
	ContentionPenalty time.Duration
	// Seed seeds the jitter source; 0 uses a fixed default so runs
	// are reproducible.
	Seed int64
	// Metrics, when non-nil, receives the cloudsim_* series, labelled
	// store=Name: request counters, rate-limit wait histogram, and
	// inflight/pool-excess gauges.
	Metrics *obs.Registry
}

// WASPreset returns a configuration shaped like the paper's single
// WAS container reached from an EC2 client, scaled down ~10× in
// latency so experiment sweeps complete in seconds rather than hours.
// The shape (linear to 16 threads, plateau at 32, decline past that)
// is preserved; see DESIGN.md.
func WASPreset() Config {
	// Calibration: with CEW 90:10 the transactional client issues
	// ~1.7 requests per transaction and one latency-bound thread
	// commits ~120 txn/s, so a 2600 req/s container ceiling binds at
	// about 16 threads — reproducing the paper's 16→32
	// thread plateau. Past the 32-connection pool each in-flight
	// request pays 1.2 ms per excess request; at 64 threads that makes
	// the client, not the container, the bottleneck — the paper's
	// 64/128-thread decline ("this may be a result of thread
	// contention").
	return Config{
		Name:              "was",
		ReadLatency:       3 * time.Millisecond,
		WriteLatency:      6 * time.Millisecond,
		LatencyJitter:     0.15,
		RateLimit:         2600,
		PoolSize:          32,
		ContentionPenalty: 1200 * time.Microsecond,
	}
}

// GCSPreset returns a configuration shaped like a GCS bucket: a bit
// slower per request than WAS in the paper's experience.
func GCSPreset() Config {
	return Config{
		Name:              "gcs",
		ReadLatency:       4 * time.Millisecond,
		WriteLatency:      8 * time.Millisecond,
		LatencyJitter:     0.2,
		RateLimit:         2100,
		PoolSize:          32,
		ContentionPenalty: 1200 * time.Microsecond,
	}
}

// Store is a simulated cloud store container backed by an in-memory
// kvstore engine. It is safe for concurrent use.
type Store struct {
	cfg     Config
	inner   *kvstore.Store
	limiter *tokenBucket

	inflight atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand

	// Stats counters.
	reads  atomic.Int64
	writes atomic.Int64
	waited atomic.Int64 // nanoseconds spent waiting for rate tokens

	// obs handles; nil (uninstrumented) handles no-op.
	mReads  *obs.Counter
	mWrites *obs.Counter
	mWait   *obs.Histogram
}

// NewOver returns a simulated container layered over an existing
// engine. The experiment harness uses this to pre-populate a store
// through a zero-latency path and then benchmark it through the
// simulated one.
func NewOver(cfg Config, inner *kvstore.Store) *Store {
	s := New(cfg)
	s.inner = inner
	return s
}

// New returns a simulated container with the given configuration.
func New(cfg Config) *Store {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	// The simulated latencies dominate a single request, but at high
	// thread counts the substrate must not serialize on one lock or
	// it, not the simulated container, becomes the bottleneck.
	inner, _ := kvstore.Open(kvstore.Options{Shards: kvstore.DefaultShards}) // in-memory open cannot fail
	s := &Store{
		cfg:   cfg,
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
	}
	if cfg.RateLimit > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = cfg.RateLimit / 10
			if burst < 1 {
				burst = 1
			}
		}
		s.limiter = newTokenBucket(cfg.RateLimit, burst)
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Help("cloudsim_requests_total", "Simulated container requests by kind.")
		reg.Help("cloudsim_ratelimit_wait_seconds", "Time requests spent waiting for rate-limit tokens.")
		reg.Help("cloudsim_inflight_requests", "Requests currently inside the simulated container.")
		reg.Help("cloudsim_pool_excess", "In-flight requests beyond the connection pool (paying contention penalty).")
		s.mReads = reg.Counter("cloudsim_requests_total", "kind", "read", "store", cfg.Name)
		s.mWrites = reg.Counter("cloudsim_requests_total", "kind", "write", "store", cfg.Name)
		s.mWait = reg.Histogram("cloudsim_ratelimit_wait_seconds", obs.DurationBuckets, "store", cfg.Name)
		reg.GaugeFunc("cloudsim_inflight_requests", func() float64 {
			return float64(s.inflight.Load())
		}, "store", cfg.Name)
		reg.GaugeFunc("cloudsim_pool_excess", func() float64 {
			if cfg.PoolSize <= 0 {
				return 0
			}
			if excess := s.inflight.Load() - int64(cfg.PoolSize); excess > 0 {
				return float64(excess)
			}
			return 0
		}, "store", cfg.Name)
	}
	return s
}

// Name returns the container name.
func (s *Store) Name() string { return s.cfg.Name }

// Stats reports request counts and cumulative rate-limit wait time.
func (s *Store) Stats() (reads, writes int64, waited time.Duration) {
	return s.reads.Load(), s.writes.Load(), time.Duration(s.waited.Load())
}

// serviceTime draws this request's simulated service latency.
func (s *Store) serviceTime(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	d := float64(mean)
	if s.cfg.LatencyJitter > 0 {
		s.mu.Lock()
		// Lognormal(µ, σ) with σ = jitter, rescaled to the target mean.
		sigma := s.cfg.LatencyJitter
		draw := math.Exp(s.rng.NormFloat64()*sigma - sigma*sigma/2)
		s.mu.Unlock()
		d *= draw
	}
	// Client-side contention: each in-flight request beyond the pool
	// size adds a queueing penalty.
	if s.cfg.PoolSize > 0 && s.cfg.ContentionPenalty > 0 {
		excess := s.inflight.Load() - int64(s.cfg.PoolSize)
		if excess > 0 {
			d += float64(excess) * float64(s.cfg.ContentionPenalty)
		}
	}
	return time.Duration(d)
}

// simulate applies admission control and latency around one request.
func (s *Store) simulate(ctx context.Context, mean time.Duration) error {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.limiter != nil {
		waited, err := s.limiter.wait(ctx)
		if err != nil {
			return err
		}
		s.waited.Add(int64(waited))
		s.mWait.Observe(waited.Seconds())
	}
	d := s.serviceTime(mean)
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Get fetches a versioned record, paying read latency.
func (s *Store) Get(ctx context.Context, table, key string) (*kvstore.VersionedRecord, error) {
	if err := s.simulate(ctx, s.cfg.ReadLatency); err != nil {
		return nil, err
	}
	s.reads.Add(1)
	s.mReads.Inc()
	return s.inner.Get(table, key)
}

// Put stores a record conditionally on expect (kvstore.AnyVersion /
// MustNotExist / exact version), paying write latency.
func (s *Store) Put(ctx context.Context, table, key string, fields map[string][]byte, expect uint64) (uint64, error) {
	if err := s.simulate(ctx, s.cfg.WriteLatency); err != nil {
		return 0, err
	}
	s.writes.Add(1)
	s.mWrites.Inc()
	return s.inner.PutIfVersion(table, key, fields, expect)
}

// Delete removes a record conditionally on expect, paying write
// latency.
func (s *Store) Delete(ctx context.Context, table, key string, expect uint64) error {
	if err := s.simulate(ctx, s.cfg.WriteLatency); err != nil {
		return err
	}
	s.writes.Add(1)
	s.mWrites.Inc()
	return s.inner.DeleteIfVersion(table, key, expect)
}

// Scan returns up to count records from startKey, paying read latency
// once (cloud list calls are one request per page).
func (s *Store) Scan(ctx context.Context, table, startKey string, count int) ([]kvstore.VersionedKV, error) {
	if err := s.simulate(ctx, s.cfg.ReadLatency); err != nil {
		return nil, err
	}
	s.reads.Add(1)
	s.mReads.Inc()
	return s.inner.Scan(table, startKey, count)
}

// Close shuts down the backing engine.
func (s *Store) Close() error { return s.inner.Close() }
