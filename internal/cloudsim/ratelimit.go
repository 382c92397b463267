package cloudsim

import (
	"context"
	"sync"
	"time"
)

// tokenBucket is a blocking rate limiter implemented as a GCRA-style
// reservation queue: each caller reserves the next free token slot,
// so concurrent callers serialize at exactly the configured rate
// (cloud SDK clients retry throttled requests with backoff; blocking
// models the steady-state effect of that).
type tokenBucket struct {
	mu       sync.Mutex
	interval time.Duration // time between tokens = 1/rate
	burstDur time.Duration // how far `next` may trail now
	next     time.Time     // when the next token becomes free
	now      func() time.Time
	sleep    func(context.Context, time.Duration) error
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if rate <= 0 {
		panic("cloudsim: rate must be positive")
	}
	if burst < 1 {
		burst = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	// A burst of b grants b immediately-available tokens: the first
	// matures now, so `next` may lag now by at most (b-1) intervals.
	burstDur := time.Duration((burst - 1) * float64(interval))
	return &tokenBucket{
		interval: interval,
		burstDur: burstDur,
		next:     time.Now().Add(-burstDur),
		now:      time.Now,
		sleep:    sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wait blocks until this caller's reserved token matures and returns
// how long it waited.
func (b *tokenBucket) wait(ctx context.Context) (time.Duration, error) {
	b.mu.Lock()
	now := b.now()
	// Idle credit accumulates up to the burst allowance.
	if earliest := now.Add(-b.burstDur); b.next.Before(earliest) {
		b.next = earliest
	}
	tokenAt := b.next
	b.next = b.next.Add(b.interval)
	b.mu.Unlock()

	wait := tokenAt.Sub(now)
	if wait <= 0 {
		return 0, nil
	}
	if err := b.sleep(ctx, wait); err != nil {
		return 0, err
	}
	return wait, nil
}
