package oracle

import (
	"math"
	"sync"
)

// Watermark tracks the set of snapshot timestamps currently held by
// live readers and publishes their minimum — the min-active-ts
// watermark MVCC garbage collection must stay below. The transaction
// layer acquires an entry when a read-only transaction pins its
// snapshot and releases it on commit/abort; the storage vacuum asks
// Min before reclaiming versions, so a version still visible to some
// active snapshot is never cut from under its reader.
//
// Timestamps are refcounted: two snapshots at the same ts are two
// acquisitions. Min returns math.MaxInt64 when no snapshot is active —
// "no floor": the vacuum then keeps only what pins and an opt-in
// retention window need.
type Watermark struct {
	mu     sync.Mutex
	active map[int64]int
	min    int64 // cached; MaxInt64 when active is empty
}

// NewWatermark returns an empty tracker.
func NewWatermark() *Watermark {
	return &Watermark{active: make(map[int64]int), min: math.MaxInt64}
}

// Acquire registers a live snapshot at ts and returns its release
// func. Release is idempotent.
func (w *Watermark) Acquire(ts int64) func() {
	w.mu.Lock()
	w.active[ts]++
	if ts < w.min {
		w.min = ts
	}
	w.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			w.mu.Lock()
			if w.active[ts]--; w.active[ts] <= 0 {
				delete(w.active, ts)
				if ts == w.min {
					w.min = math.MaxInt64
					for t := range w.active {
						if t < w.min {
							w.min = t
						}
					}
				}
			}
			w.mu.Unlock()
		})
	}
}

// Min reports the oldest active snapshot timestamp, or math.MaxInt64
// when none is active.
func (w *Watermark) Min() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.min
}

// Active reports how many snapshot acquisitions are currently live.
func (w *Watermark) Active() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range w.active {
		n += c
	}
	return n
}
