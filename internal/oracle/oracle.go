// Package oracle provides the centralized timestamp oracle (TO) that
// Percolator-style transaction protocols depend on — and that the
// paper's own client-coordinated design pointedly avoids ("It does
// not depend on any centralized timestamp oracle or logging
// infrastructure", Section II-B).
//
// Two implementations, both in process:
//
//   - Local: a strictly-monotonic counter, the best case.
//   - Delayed: wraps another oracle with a simulated network round
//     trip, modelling a WAN-remote oracle; this is what makes the
//     paper's "bottleneck over a long-haul network" claim measurable.
package oracle

import (
	"context"
	"sync/atomic"
	"time"
)

// Oracle hands out strictly increasing timestamps. Implementations
// must be safe for concurrent use.
type Oracle interface {
	// Next returns a timestamp strictly greater than every timestamp
	// previously returned.
	Next(ctx context.Context) (int64, error)
}

// Local is an in-process oracle: wall-clock nanoseconds, bumped to
// stay strictly monotonic.
type Local struct {
	last atomic.Int64
}

// NewLocal returns a fresh in-process oracle.
func NewLocal() *Local { return &Local{} }

// Next implements Oracle.
func (l *Local) Next(context.Context) (int64, error) {
	for {
		phys := time.Now().UnixNano()
		last := l.last.Load()
		next := phys
		if next <= last {
			next = last + 1
		}
		if l.last.CompareAndSwap(last, next) {
			return next, nil
		}
	}
}

// Delayed wraps an oracle with a simulated round-trip time; every
// Next pays the full RTT, as a WAN client of a central oracle would.
type Delayed struct {
	inner Oracle
	rtt   time.Duration
}

// NewDelayed wraps inner with the given round-trip time.
func NewDelayed(inner Oracle, rtt time.Duration) *Delayed {
	return &Delayed{inner: inner, rtt: rtt}
}

// Next implements Oracle, paying the round trip before consulting the
// wrapped oracle.
func (d *Delayed) Next(ctx context.Context) (int64, error) {
	if d.rtt > 0 {
		t := time.NewTimer(d.rtt)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return d.inner.Next(ctx)
}
