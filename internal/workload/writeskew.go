package workload

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"ycsbt/internal/db"
	"ycsbt/internal/generator"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// WriteSkewWorkload targets the classic snapshot-isolation write-skew
// anomaly — the Section VII future-work direction of the paper
// ("additional workloads that will target specific anomalies that are
// observed at various transaction isolation levels").
//
// The database holds pairs of accounts (a_i, b_i). The application
// constraint is per-pair: a_i + b_i ≥ 0. A withdraw transaction reads
// both accounts of a pair and, if the combined balance covers the
// amount, subtracts it from ONE of the two (chosen at random). Two
// concurrent withdrawals against the same pair each see the other
// account untouched and each debit a different record — serializable
// execution forbids it, snapshot isolation permits it, and
// non-transactional execution also loses updates outright.
//
// The validation stage counts pairs whose combined balance went
// negative; the anomaly score is violations / operations. Expected
// outcomes:
//
//   - non-transactional binding: score > 0 under concurrency;
//   - txn library, snapshot mode (default): score > 0 — write skew is
//     exactly the anomaly snapshot isolation admits;
//   - txn library with SerializableReads: score = 0.
//
// A deposit operation (ws.depositproportion) resets a pair to its
// initial balances so the skew-prone window keeps recurring — but it
// deliberately skips pairs whose sum is already negative, so evidence
// of a violation survives until the validation stage.
//
// Properties: recordcount = number of pairs (default 100), ws.initial
// per-account starting balance (default 100), ws.withdraw amount per
// withdrawal (default 150 — more than one account, less than the
// pair), readproportion (default 0.2), ws.depositproportion (default
// 0.3; the remainder are withdrawals),
// requestdistribution (zipfian|uniform, default zipfian), seed.
type WriteSkewWorkload struct {
	table    string
	pairs    int64
	initial  int64
	withdraw int64
	readProp float64
	depProp  float64
	distName string
	seed     int64

	ops        atomic.Int64
	withdrawn  atomic.Int64 // total successfully withdrawn
	sharedLoad *generator.Counter
	reg        *measurement.Registry
}

// NewWriteSkew returns an uninitialized write-skew workload.
func NewWriteSkew() *WriteSkewWorkload { return &WriteSkewWorkload{} }

func init() {
	Register("writeskew", func() Workload { return NewWriteSkew() })
}

type wsThreadState struct {
	r        *rand.Rand
	pairPick generator.Integer
	loadSeq  *generator.Counter
}

// Init implements Workload.
func (w *WriteSkewWorkload) Init(p *properties.Properties, reg *measurement.Registry) error {
	w.reg = reg
	w.table = p.GetString("table", "usertable")
	w.pairs = p.GetInt64("recordcount", 100)
	if w.pairs <= 0 {
		return fmt.Errorf("workload: recordcount must be positive, got %d", w.pairs)
	}
	w.initial = p.GetInt64("ws.initial", 100)
	w.withdraw = p.GetInt64("ws.withdraw", 150)
	if w.withdraw <= w.initial || w.withdraw > 2*w.initial {
		return fmt.Errorf("workload: ws.withdraw (%d) must exceed one account (%d) but fit in the pair (%d) for skew to be observable",
			w.withdraw, w.initial, 2*w.initial)
	}
	w.readProp = p.GetFloat("readproportion", 0.2)
	w.depProp = p.GetFloat("ws.depositproportion", 0.3)
	if w.readProp < 0 || w.readProp > 1 || w.depProp < 0 || w.readProp+w.depProp > 1 {
		return fmt.Errorf("workload: proportions out of range (read %v, deposit %v)", w.readProp, w.depProp)
	}
	w.distName = p.GetString("requestdistribution", "zipfian")
	w.seed = p.GetInt64("seed", 42)
	w.sharedLoad = generator.NewCounter(0)
	return nil
}

// InitThread implements Workload.
func (w *WriteSkewWorkload) InitThread(id, count int) (ThreadState, error) {
	if count <= 0 {
		return nil, fmt.Errorf("workload: thread count %d", count)
	}
	ts := &wsThreadState{r: threadRand(w.seed, id), loadSeq: w.sharedLoad}
	switch w.distName {
	case "uniform":
		ts.pairPick = generator.NewUniform(0, w.pairs-1)
	case "zipfian":
		ts.pairPick = generator.NewScrambledZipfian(0, w.pairs-1)
	default:
		return nil, fmt.Errorf("workload: unknown requestdistribution %q", w.distName)
	}
	return ts, nil
}

func (w *WriteSkewWorkload) keyA(pair int64) string { return fmt.Sprintf("pair%010da", pair) }
func (w *WriteSkewWorkload) keyB(pair int64) string { return fmt.Sprintf("pair%010db", pair) }

// Load implements Workload: one pair per call (two inserts).
func (w *WriteSkewWorkload) Load(ctx context.Context, d db.DB, ts ThreadState) error {
	s := ts.(*wsThreadState)
	pair := s.loadSeq.Next(s.r)
	if pair >= w.pairs {
		return fmt.Errorf("workload: load overran pair count (%d)", pair)
	}
	if err := d.Insert(ctx, w.table, w.keyA(pair), balanceRecord(w.initial)); err != nil {
		return err
	}
	return d.Insert(ctx, w.table, w.keyB(pair), balanceRecord(w.initial))
}

// Do implements Workload.
func (w *WriteSkewWorkload) Do(ctx context.Context, d db.DB, ts ThreadState) (OpType, error) {
	s := ts.(*wsThreadState)
	defer w.ops.Add(1)
	u := s.r.Float64()
	switch {
	case u < w.readProp:
		pair := s.pairPick.Next(s.r)
		if _, err := d.Read(ctx, w.table, w.keyA(pair), nil); err != nil {
			return OpRead, err
		}
		_, err := d.Read(ctx, w.table, w.keyB(pair), nil)
		return OpRead, err
	case u < w.readProp+w.depProp:
		return OpUpdate, w.doDeposit(ctx, d, s)
	default:
		return OpRMW, w.doWithdraw(ctx, d, s)
	}
}

// doDeposit restores a pair to its initial balances — unless the pair
// already violates the constraint, in which case it is left alone so
// the violation is observable at validation time.
func (w *WriteSkewWorkload) doDeposit(ctx context.Context, d db.DB, s *wsThreadState) error {
	pair := s.pairPick.Next(s.r)
	ka, kb := w.keyA(pair), w.keyB(pair)
	ra, err := d.Read(ctx, w.table, ka, nil)
	if err != nil {
		return err
	}
	rb, err := d.Read(ctx, w.table, kb, nil)
	if err != nil {
		return err
	}
	balA, err := parseBalance(db.MapFields(ra))
	if err != nil {
		return err
	}
	balB, err := parseBalance(db.MapFields(rb))
	if err != nil {
		return err
	}
	if balA+balB < 0 || (balA == w.initial && balB == w.initial) {
		return nil // violated (preserve evidence) or already full
	}
	if err := d.Update(ctx, w.table, ka, balanceRecord(w.initial)); err != nil {
		return err
	}
	return d.Update(ctx, w.table, kb, balanceRecord(w.initial))
}

// doWithdraw is the skew-prone transaction: read both accounts of a
// pair, check the constraint, debit one.
func (w *WriteSkewWorkload) doWithdraw(ctx context.Context, d db.DB, s *wsThreadState) error {
	pair := s.pairPick.Next(s.r)
	ka, kb := w.keyA(pair), w.keyB(pair)
	ra, err := d.Read(ctx, w.table, ka, nil)
	if err != nil {
		return err
	}
	rb, err := d.Read(ctx, w.table, kb, nil)
	if err != nil {
		return err
	}
	balA, err := parseBalance(db.MapFields(ra))
	if err != nil {
		return err
	}
	balB, err := parseBalance(db.MapFields(rb))
	if err != nil {
		return err
	}
	if balA+balB < w.withdraw {
		return nil // constraint would be violated: decline, commit no-op
	}
	target, newBal := ka, balA-w.withdraw
	if s.r.Intn(2) == 1 {
		target, newBal = kb, balB-w.withdraw
	}
	if err := d.Update(ctx, w.table, target, balanceRecord(newBal)); err != nil {
		return err
	}
	w.withdrawn.Add(w.withdraw)
	return nil
}

// Operations returns the number of operations executed.
func (w *WriteSkewWorkload) Operations() int64 { return w.ops.Load() }

// Validate implements the Tier 6 stage: count pairs whose combined
// balance violates the a+b ≥ 0 constraint.
func (w *WriteSkewWorkload) Validate(ctx context.Context, d db.DB) (*ValidationResult, error) {
	var violations, pairsSeen int64
	for pair := int64(0); pair < w.pairs; pair++ {
		ra, err := d.Read(ctx, w.table, w.keyA(pair), nil)
		if err != nil {
			return nil, fmt.Errorf("workload: validating pair %d: %w", pair, err)
		}
		rb, err := d.Read(ctx, w.table, w.keyB(pair), nil)
		if err != nil {
			return nil, fmt.Errorf("workload: validating pair %d: %w", pair, err)
		}
		balA, err := parseBalance(db.MapFields(ra))
		if err != nil {
			return nil, err
		}
		balB, err := parseBalance(db.MapFields(rb))
		if err != nil {
			return nil, err
		}
		pairsSeen++
		if balA+balB < 0 {
			violations++
		}
	}
	n := w.ops.Load()
	score := 0.0
	if n > 0 {
		score = float64(violations) / float64(n)
	}
	return &ValidationResult{
		Valid:        violations == 0,
		Expected:     0,
		Counted:      violations,
		Operations:   n,
		AnomalyScore: score,
		Detail: fmt.Sprintf("%d of %d pairs violate a+b ≥ 0 (withdrew %s total)",
			violations, pairsSeen, strconv.FormatInt(w.withdrawn.Load(), 10)),
	}, nil
}
