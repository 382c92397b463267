// Package history implements durable per-run operation histories and
// offline consistency certification — the richer alternative to the
// paper's single anomaly score γ. γ only catches violations that
// disturb the CEW invariant; anomalies that cancel out in the sum
// (write skew being the canonical case) are invisible to it. Biswas &
// Enea ("On the Complexity of Checking Transactional Consistency")
// and Coo ("Consistency Check for Transactional Databases") point at
// the stronger approach this package takes: record the complete
// operation history of a run — every transaction's reads and writes
// with the MVCC versions they observed and installed, plus start and
// commit timestamps — then certify or refute isolation levels offline
// and name the violating cycle.
//
// The subsystem has three parts:
//
//   - Capture (sink.go, middleware.go): a streaming NDJSON sink with
//     bounded memory, fed either by txn.Manager commit paths (the
//     txnkv binding, including the cluster backend) or by the history
//     middleware for non-transactional bindings.
//   - Decode (decode.go): the crash-tolerant NDJSON reader.
//   - Check (check.go): the certifier — DSG construction over
//     commit-timestamp-ordered MVCC versions, serializability via
//     cycle detection with witness extraction, snapshot isolation via
//     snapshot-interval feasibility plus first-committer-wins.
package history

import (
	"strings"
	"sync/atomic"
	"time"
)

// Transaction outcomes.
const (
	OutcomeCommit = "c"
	OutcomeAbort  = "a"
)

// Op kinds.
const (
	OpRead   = "r"
	OpWrite  = "w"
	OpDelete = "d"
)

// Op is one operation of a recorded transaction.
type Op struct {
	// Kind is OpRead, OpWrite or OpDelete.
	Kind string `json:"op"`
	// Store is the store name ("" for single-store bindings).
	Store string `json:"st,omitempty"`
	// Table is the target table.
	Table string `json:"tab,omitempty"`
	// Key is the target key.
	Key string `json:"key"`
	// Ver is the record version read (OpRead) or installed (OpWrite /
	// OpDelete); 0 means the binding did not report one.
	Ver uint64 `json:"ver,omitempty"`
}

// GraphKey is the composite identity an Op's record has in the
// dependency graph: the non-empty (store, table, key) components
// joined with "/".
func (o Op) GraphKey() string {
	parts := make([]string, 0, 3)
	if o.Store != "" {
		parts = append(parts, o.Store)
	}
	if o.Table != "" {
		parts = append(parts, o.Table)
	}
	parts = append(parts, o.Key)
	return strings.Join(parts, "/")
}

// TxnRecord is one finished transaction: identity, session, outcome,
// timestamps and the versioned operations it performed.
type TxnRecord struct {
	// ID uniquely identifies the transaction within the run.
	ID string `json:"id"`
	// Session is the client thread that drove the transaction
	// (-1 = unknown).
	Session int `json:"sess"`
	// StartTS is the transaction's begin timestamp (0 = unknown).
	StartTS int64 `json:"start,omitempty"`
	// CommitTS is the commit timestamp (0 = unknown or aborted).
	CommitTS int64 `json:"commit,omitempty"`
	// Outcome is OutcomeCommit or OutcomeAbort.
	Outcome string `json:"out"`
	// Ops are the recorded operations.
	Ops []Op `json:"ops"`
}

// Committed reports whether the transaction committed.
func (r *TxnRecord) Committed() bool { return r.Outcome == OutcomeCommit }

// TxnSink receives finished transactions. Implementations must be
// safe for concurrent use; *Sink is the durable one, MemorySink the
// in-process one for tests.
type TxnSink interface {
	RecordTxn(*TxnRecord)
}

// CapableDB is implemented by bindings that feed a history sink
// natively from their own transaction machinery (the txnkv binding
// forwards to txn.Manager). The client prefers this over stacking the
// capture middleware, so transactions are never recorded twice.
type CapableDB interface {
	// SetHistorySink installs the sink; call it before the first
	// transaction begins.
	SetHistorySink(TxnSink)
}

// clock is a minimal hybrid logical clock for the capture middleware:
// strictly increasing nanosecond timestamps even under bursts. (A
// copy of txn.HLC — txn imports this package, so it cannot be
// imported back.)
type clock struct {
	last atomic.Int64
}

func (c *clock) now() int64 {
	for {
		phys := time.Now().UnixNano()
		last := c.last.Load()
		next := phys
		if next <= last {
			next = last + 1
		}
		if c.last.CompareAndSwap(last, next) {
			return next
		}
	}
}
