package db

import (
	"sync"
	"time"
)

// OpEvent is one operation observed by the trace middleware: which
// operation ran, against what, how long it took and how it ended.
// OpEvents are captured generically at the Middleware layer for any
// binding; record versions are the history capture's business.
type OpEvent struct {
	// Op is the operation's series name ("READ", "COMMIT", …).
	Op string
	// Table and Key locate the target ("" for Start/Commit/Abort).
	Table string
	Key   string
	// Latency is the observed wall-clock duration, including
	// everything stacked inside the trace middleware.
	Latency time.Duration
	// Code is the db return code of the outcome (0 = OK).
	Code int
}

// OpLog is a bounded operation log implementing OpObserver: plug it
// into the "trace" middleware (Traced) and every operation flowing
// through the chain is appended. It keeps the most recent max events
// in a ring while counting all of them, so long runs stay bounded in
// memory. Safe for concurrent use; the log is opt-in diagnostics, not
// a benchmark hot path.
type OpLog struct {
	mu    sync.Mutex
	ring  []OpEvent
	next  int   // ring write cursor
	total int64 // events ever observed
}

// DefaultOpLogSize bounds an OpLog when no capacity is given.
const DefaultOpLogSize = 1 << 16

// NewOpLog returns a log retaining the latest max events (max <= 0
// takes DefaultOpLogSize).
func NewOpLog(max int) *OpLog {
	if max <= 0 {
		max = DefaultOpLogSize
	}
	return &OpLog{ring: make([]OpEvent, 0, max)}
}

// ObserveOp implements OpObserver.
func (l *OpLog) ObserveOp(info OpInfo, latency time.Duration, err error) {
	ev := OpEvent{
		Op:      info.Op.Series(),
		Table:   info.Table,
		Key:     info.Key,
		Latency: latency,
		Code:    ReturnCode(err),
	}
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.next] = ev
		l.next = (l.next + 1) % len(l.ring)
	}
	l.total++
	l.mu.Unlock()
}

// Total returns how many events were observed over the log's life,
// including ones the ring has since dropped.
func (l *OpLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Events returns the retained events, oldest first.
func (l *OpLog) Events() []OpEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]OpEvent, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

var _ OpObserver = (*OpLog)(nil)
