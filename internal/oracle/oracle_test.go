package oracle

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLocalMonotonic(t *testing.T) {
	o := NewLocal()
	ctx := context.Background()
	var mu sync.Mutex
	seen := map[int64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for i := 0; i < 500; i++ {
				ts, err := o.Next(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if ts <= prev {
					t.Errorf("not monotonic per goroutine: %d after %d", ts, prev)
					return
				}
				prev = ts
				mu.Lock()
				if seen[ts] {
					t.Errorf("duplicate timestamp %d", ts)
					mu.Unlock()
					return
				}
				seen[ts] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestDelayedPaysRTT(t *testing.T) {
	o := NewDelayed(NewLocal(), 20*time.Millisecond)
	ctx := context.Background()
	start := time.Now()
	if _, err := o.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("Next returned in %v, want ≥ 20ms RTT", elapsed)
	}
	// Cancellation interrupts the wait.
	slow := NewDelayed(NewLocal(), 5*time.Second)
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := slow.Next(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Next = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not interrupt")
	}
	// Zero RTT passes straight through.
	fast := NewDelayed(NewLocal(), 0)
	if _, err := fast.Next(ctx); err != nil {
		t.Fatal(err)
	}
}
