package db

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestOpLogObserveFields(t *testing.T) {
	l := NewOpLog(8)
	l.ObserveOp(OpInfo{Op: OpRead, Table: "usertable", Key: "user42"}, 5*time.Millisecond, ErrNotFound)
	l.ObserveOp(OpInfo{Op: OpCommit}, time.Millisecond, nil)
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("Events len = %d", len(evs))
	}
	e := evs[0]
	if e.Op != "READ" || e.Table != "usertable" || e.Key != "user42" {
		t.Errorf("event = %+v", e)
	}
	if e.Latency != 5*time.Millisecond || e.Code != CodeNotFound {
		t.Errorf("latency/code = %v/%d", e.Latency, e.Code)
	}
	if evs[1].Op != "COMMIT" || evs[1].Code != CodeOK {
		t.Errorf("commit event = %+v", evs[1])
	}
}

func TestOpLogRingWraparound(t *testing.T) {
	l := NewOpLog(4)
	for i := 0; i < 10; i++ {
		l.ObserveOp(OpInfo{Op: OpRead, Key: fmt.Sprintf("k%d", i)}, 0, nil)
	}
	if l.Total() != 10 {
		t.Errorf("Total = %d, want 10", l.Total())
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// Oldest-first: the ring keeps the latest 4 of 10.
	for i, e := range evs {
		if want := fmt.Sprintf("k%d", 6+i); e.Key != want {
			t.Errorf("event %d key = %q, want %q", i, e.Key, want)
		}
	}
}

func TestOpLogDefaultSize(t *testing.T) {
	l := NewOpLog(0)
	if got := cap(l.ring); got != DefaultOpLogSize {
		t.Errorf("default capacity = %d, want %d", got, DefaultOpLogSize)
	}
}

func TestOpLogConcurrent(t *testing.T) {
	l := NewOpLog(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			l.ObserveOp(OpInfo{Op: OpUpdate}, time.Microsecond, errors.New("x"))
		}
	}()
	for i := 0; i < 100; i++ {
		if got := int64(len(l.Events())); got > l.Total() {
			t.Fatalf("retained %d events with total %d", got, l.Total())
		}
	}
	<-done
	if l.Total() != 2000 {
		t.Errorf("Total = %d", l.Total())
	}
}
