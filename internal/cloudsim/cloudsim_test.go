package cloudsim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/properties"
)

// fastConfig returns a config with tiny latencies for quick tests.
func fastConfig() Config {
	return Config{
		Name:         "test",
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 200 * time.Microsecond,
	}
}

func TestStoreBasicOps(t *testing.T) {
	ctx := context.Background()
	s := New(fastConfig())
	defer s.Close()

	v, err := s.Put(ctx, "t", "k", map[string][]byte{"f": []byte("a")}, kvstore.AnyVersion)
	if err != nil || v != 1 {
		t.Fatalf("Put = %d, %v", v, err)
	}
	rec, err := s.Get(ctx, "t", "k")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != 1 || string(rec.Field("f")) != "a" {
		t.Errorf("Get = %+v", rec)
	}
	// Conditional put honors versions.
	if _, err := s.Put(ctx, "t", "k", map[string][]byte{"f": []byte("b")}, 99); !errors.Is(err, kvstore.ErrVersionMismatch) {
		t.Errorf("stale CAS = %v", err)
	}
	if _, err := s.Put(ctx, "t", "k", map[string][]byte{"f": []byte("b")}, 1); err != nil {
		t.Errorf("CAS = %v", err)
	}
	kvs, err := s.Scan(ctx, "t", "", 10)
	if err != nil || len(kvs) != 1 {
		t.Errorf("Scan = %v, %v", kvs, err)
	}
	if err := s.Delete(ctx, "t", "k", kvstore.AnyVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "t", "k"); !errors.Is(err, kvstore.ErrNotFound) {
		t.Errorf("Get after delete = %v", err)
	}
	reads, writes, _ := s.Stats()
	if reads != 3 || writes != 4 {
		t.Errorf("Stats = %d reads, %d writes", reads, writes)
	}
}

func TestStoreLatencyApplied(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Name: "lat", ReadLatency: 5 * time.Millisecond, WriteLatency: 10 * time.Millisecond}
	s := New(cfg)
	defer s.Close()
	s.Put(ctx, "t", "k", map[string][]byte{"f": []byte("v")}, kvstore.AnyVersion)

	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := s.Get(ctx, "t", "k"); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < n*4*time.Millisecond {
		t.Errorf("10 reads took %v, want ≥ %v", elapsed, n*4*time.Millisecond)
	}
}

func TestStoreJitterVariesLatency(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Name: "jit", ReadLatency: 2 * time.Millisecond, LatencyJitter: 0.5, Seed: 42}
	s := New(cfg)
	defer s.Close()
	s.inner.Put("t", "k", map[string][]byte{"f": []byte("v")})

	var min, max time.Duration = time.Hour, 0
	for i := 0; i < 30; i++ {
		start := time.Now()
		s.Get(ctx, "t", "k")
		d := time.Since(start)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max < min*11/10 {
		t.Errorf("jitter absent: min=%v max=%v", min, max)
	}
}

func TestStoreContextCancellation(t *testing.T) {
	cfg := Config{Name: "slow", ReadLatency: 2 * time.Second}
	s := New(cfg)
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Get(ctx, "t", "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Get = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not interrupt the latency sleep")
	}
}

func TestRateLimiterCapsThroughput(t *testing.T) {
	// 500 req/s with 8 concurrent clients for ~400ms should complete
	// roughly 200 requests, far below the unthrottled count.
	cfg := Config{Name: "cap", RateLimit: 500, Burst: 1}
	s := New(cfg)
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := s.Put(ctx, "t", "k", map[string][]byte{"f": []byte("v")}, kvstore.AnyVersion); err == nil {
					ops.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	got := ops.Load()
	if got > 320 {
		t.Errorf("rate limiter leaked: %d ops in 400ms at 500/s", got)
	}
	if got < 100 {
		t.Errorf("rate limiter too strict: %d ops", got)
	}
	_, _, waited := s.Stats()
	if waited == 0 {
		t.Error("no rate-limit waiting recorded")
	}
}

func TestTokenBucketSequential(t *testing.T) {
	b := newTokenBucket(1000, 1) // 1ms per token
	ctx := context.Background()
	// First request rides the burst.
	w, err := b.wait(ctx)
	if err != nil || w != 0 {
		t.Fatalf("first wait = %v, %v", w, err)
	}
	// Back-to-back requests must be paced.
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := b.wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 8*time.Millisecond {
		t.Errorf("10 paced waits took %v, want ≈10ms", elapsed)
	}
}

func TestTokenBucketIdleCredit(t *testing.T) {
	b := newTokenBucket(100, 5)
	ctx := context.Background()
	// Consume the burst.
	for i := 0; i < 5; i++ {
		b.wait(ctx)
	}
	// After idling, burst credit returns.
	time.Sleep(80 * time.Millisecond)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := b.wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
		t.Errorf("burst after idle took %v", elapsed)
	}
}

func TestTokenBucketCancellation(t *testing.T) {
	b := newTokenBucket(1, 1)
	ctx := context.Background()
	b.wait(ctx) // consume the burst token
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := b.wait(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("wait = %v", err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Error("cancellation did not interrupt the wait")
	}
}

func TestContentionPenaltyGrowsWithConcurrency(t *testing.T) {
	cfg := Config{
		Name:              "cont",
		ReadLatency:       200 * time.Microsecond,
		PoolSize:          2,
		ContentionPenalty: 2 * time.Millisecond,
	}
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()
	s.inner.Put("t", "k", map[string][]byte{"f": []byte("v")})

	measure := func(threads int) time.Duration {
		var wg sync.WaitGroup
		var total atomic.Int64
		var count atomic.Int64
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					start := time.Now()
					s.Get(ctx, "t", "k")
					total.Add(int64(time.Since(start)))
					count.Add(1)
				}
			}()
		}
		wg.Wait()
		return time.Duration(total.Load() / count.Load())
	}
	lowConc := measure(1)
	highConc := measure(16)
	if highConc < 2*lowConc {
		t.Errorf("contention penalty absent: 1-thread avg %v, 16-thread avg %v", lowConc, highConc)
	}
}

func TestPresets(t *testing.T) {
	for _, cfg := range []Config{WASPreset(), GCSPreset()} {
		if cfg.ReadLatency <= 0 || cfg.WriteLatency < cfg.ReadLatency {
			t.Errorf("%s: implausible latencies %v/%v", cfg.Name, cfg.ReadLatency, cfg.WriteLatency)
		}
		if cfg.RateLimit <= 0 || cfg.PoolSize <= 0 {
			t.Errorf("%s: missing rate limit or pool", cfg.Name)
		}
	}
}

func TestBindingCRUD(t *testing.T) {
	ctx := context.Background()
	b := NewBinding(New(fastConfig()))
	if err := b.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(ctx, "t", "k", db.Record{"f": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	rec, err := b.Read(ctx, "t", "k", nil)
	if err != nil || string(rec["f"]) != "1" {
		t.Fatalf("Read = %v, %v", rec, err)
	}
	if err := b.Update(ctx, "t", "k", db.Record{"g": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	rec, _ = b.Read(ctx, "t", "k", nil)
	if string(rec["f"]) != "1" || string(rec["g"]) != "2" {
		t.Errorf("merged = %v", rec)
	}
	rec, _ = b.Read(ctx, "t", "k", []string{"g"})
	if len(rec) != 1 {
		t.Errorf("projection = %v", rec)
	}
	kvs, err := b.Scan(ctx, "t", "", 5, nil)
	if err != nil || len(kvs) != 1 {
		t.Errorf("Scan = %v, %v", kvs, err)
	}
	if err := b.Delete(ctx, "t", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(ctx, "t", "k", nil); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("after delete = %v", err)
	}
	if err := b.Update(ctx, "t", "missing", db.Record{"f": nil}); !errors.Is(err, db.ErrNotFound) {
		t.Errorf("Update missing = %v", err)
	}
	if err := b.Cleanup(); err != nil {
		t.Fatal(err)
	}
}

func TestBindingInitFromProperties(t *testing.T) {
	p := properties.FromMap(map[string]string{
		"cloudsim.preset":         "gcs",
		"cloudsim.readlatency_us": "50",
		"cloudsim.ratelimit":      "123",
	})
	b := &Binding{}
	if err := b.Init(p); err != nil {
		t.Fatal(err)
	}
	defer b.Cleanup()
	if b.Store().cfg.ReadLatency != 50*time.Microsecond {
		t.Errorf("ReadLatency = %v", b.Store().cfg.ReadLatency)
	}
	if b.Store().cfg.RateLimit != 123 {
		t.Errorf("RateLimit = %v", b.Store().cfg.RateLimit)
	}
	if b.Store().cfg.Name != "gcs" {
		t.Errorf("preset = %q", b.Store().cfg.Name)
	}

	bad := &Binding{}
	if err := bad.Init(properties.FromMap(map[string]string{"cloudsim.preset": "aws"})); err == nil {
		t.Error("unknown preset should fail")
	}
}
