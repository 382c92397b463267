package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/generator"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// ClosedEconomyWorkload (CEW) is the paper's Section IV-C workload: a
// simplified simulation of a closed economy in which money neither
// enters nor exits the system during the evaluation period. A fixed
// number of accounts share a fixed amount of total cash, initially
// distributed evenly. Every operation preserves the invariant
//
//	Σ account balances + escrow pot == totalcash
//
// when executed serializably, so any drift measures isolation
// anomalies (lost updates and the like). Operations follow the paper:
//
//   - doTransactionRead: read an account chosen by the key generator.
//   - doTransactionScan: scan a key range.
//   - doTransactionUpdate: read an account, add $1 captured from
//     delete operations (the escrow pot), write it back.
//   - doTransactionDelete: read an account, capture its balance into
//     the pot, delete the record.
//   - doTransactionInsert: create a new account with a balance
//     captured from the pot.
//   - doTransactionReadModifyWrite: read two accounts, move $1 from
//     one to the other, write both back.
//
// The validation phase (Tier 6) iterates every record, sums the
// balances and compares against totalcash, reporting the paper's
// simple anomaly score γ = |S_initial − S_final| / n.
//
// Properties (defaults in parentheses): recordcount (10000),
// totalcash (recordcount × 1000, i.e. $1000 per account),
// readproportion (0.9), updateproportion (0), insertproportion (0),
// scanproportion (0), deleteproportion (0),
// readmodifywriteproportion (0.1), requestdistribution (zipfian),
// table (usertable), zeropadding (12), seed (42).
type ClosedEconomyWorkload struct {
	table       string
	recordCount int64
	totalCash   int64
	distName    string
	zeroPadding int
	seed        int64
	// batchSize is how many records one validation scan asks for
	// (validateBatch).
	batchSize int

	opChooser   *generator.Discrete
	insertSeq   *generator.AcknowledgedCounter
	loadCounter *generator.Counter
	reg         *measurement.Registry

	// pot is the escrow holding cash captured by deletes until an
	// insert or update returns it to an account. It is client-side
	// state, updated atomically, so it never contributes anomalies of
	// its own.
	pot atomic.Int64
	// ops counts executed operations: the n of the anomaly score.
	ops atomic.Int64
}

// NewClosedEconomy returns an uninitialized CEW.
func NewClosedEconomy() *ClosedEconomyWorkload { return &ClosedEconomyWorkload{} }

func init() {
	Register("closedeconomy", func() Workload { return NewClosedEconomy() })
	Register("com.yahoo.ycsb.workloads.ClosedEconomyWorkload", func() Workload { return NewClosedEconomy() })
}

type cewThreadState struct {
	r         *rand.Rand
	keyChoose generator.Integer
	scanLen   generator.Integer
	opChoose  *generator.Discrete
	loadSeq   *generator.Counter // shared; see Init
	rmw       *measurement.SeriesRecorder

	// potDelta is the net escrow-pot change made by the operation
	// currently wrapped in a transaction; OnAbort reverses it when
	// that transaction rolls back.
	potDelta int64
}

// validateBatch is the record count of one validation scan.
const validateBatch = 1000

// Init implements Workload.
func (c *ClosedEconomyWorkload) Init(p *properties.Properties, reg *measurement.Registry) error {
	c.reg = reg
	c.table = p.GetString("table", "usertable")
	c.recordCount = p.GetInt64("recordcount", 10000)
	if c.recordCount <= 0 {
		return fmt.Errorf("workload: recordcount must be positive, got %d", c.recordCount)
	}
	c.totalCash = p.GetInt64("totalcash", c.recordCount*1000)
	if c.totalCash < c.recordCount {
		return fmt.Errorf("workload: totalcash %d cannot give every one of %d accounts a balance", c.totalCash, c.recordCount)
	}
	c.distName = p.GetString("requestdistribution", "zipfian")
	c.zeroPadding = p.GetInt("zeropadding", 12)
	c.seed = p.GetInt64("seed", 42)
	c.batchSize = validateBatch

	read := p.GetFloat("readproportion", 0.9)
	update := p.GetFloat("updateproportion", 0)
	insert := p.GetFloat("insertproportion", 0)
	scan := p.GetFloat("scanproportion", 0)
	del := p.GetFloat("deleteproportion", 0)
	rmw := p.GetFloat("readmodifywriteproportion", 0.1)
	c.opChooser = generator.NewDiscrete()
	for _, e := range []struct {
		op   OpType
		prop float64
	}{
		{OpRead, read}, {OpUpdate, update}, {OpInsert, insert},
		{OpScan, scan}, {OpDelete, del}, {OpRMW, rmw},
	} {
		if e.prop < 0 {
			return fmt.Errorf("workload: negative proportion for %s", e.op)
		}
		c.opChooser.Add(e.prop, string(e.op))
	}
	c.insertSeq = generator.NewAcknowledgedCounter(c.recordCount)
	c.loadCounter = generator.NewCounter(0)
	return nil
}

// InitThread implements Workload.
func (c *ClosedEconomyWorkload) InitThread(id, count int) (ThreadState, error) {
	if count <= 0 {
		return nil, fmt.Errorf("workload: thread count %d", count)
	}
	ts := &cewThreadState{r: threadRand(c.seed, id), opChoose: c.opChooser.Clone(), loadSeq: c.loadCounter}
	switch c.distName {
	case "uniform":
		ts.keyChoose = generator.NewUniform(0, c.recordCount-1)
	case "zipfian":
		ts.keyChoose = generator.NewScrambledZipfian(0, c.recordCount-1)
	case "latest":
		ts.keyChoose = generator.NewSkewedLatest(c.insertSeq)
	case "sequential":
		ts.keyChoose = generator.NewSequential(0, c.recordCount-1)
	case "hotspot":
		ts.keyChoose = generator.NewHotspot(0, c.recordCount-1, 0.2, 0.8)
	default:
		return nil, fmt.Errorf("workload: unknown requestdistribution %q", c.distName)
	}
	ts.scanLen = generator.NewUniform(1, 100)
	if c.reg != nil {
		// Thread-private series handle: the RMW hot path writes to its
		// own shard instead of funnelling through the shared one.
		ts.rmw = c.reg.Recorder().Series(string(OpRMW))
	}
	return ts, nil
}

// keyName formats account number keynum, zero-padded so lexicographic
// scan order matches numeric order. The name is built in stack
// buffers, so the returned string is its one allocation.
func (c *ClosedEconomyWorkload) keyName(keynum int64) string {
	var digits, buf [32]byte
	num := strconv.AppendInt(digits[:0], keynum, 10)
	b := append(buf[:0], "user"...)
	for pad := c.zeroPadding - len(num); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, num...))
}

func balanceRecord(amount int64) db.Record {
	return db.Record{"field0": []byte(strconv.FormatInt(amount, 10))}
}

func parseBalance(rec db.Fields) (int64, error) {
	raw, ok := rec.Get("field0")
	if !ok {
		return 0, errors.New("workload: record has no field0 balance")
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("workload: unparsable balance %q: %w", raw, err)
	}
	return n, nil
}

// initialBalance computes account i's share of total cash: even
// split, with the first accounts absorbing the remainder so the sum
// is exactly totalcash.
func (c *ClosedEconomyWorkload) initialBalance(keynum int64) int64 {
	share := c.totalCash / c.recordCount
	if keynum < c.totalCash%c.recordCount {
		return share + 1
	}
	return share
}

// Load implements Workload: insert one account with its initial
// balance (paper: "Each key denotes an account number and is assigned
// an initial balance ... set to a portion of the amount set by the
// workload parameter total_cash").
func (c *ClosedEconomyWorkload) Load(ctx context.Context, d db.DB, ts ThreadState) error {
	s := ts.(*cewThreadState)
	keynum := s.loadSeq.Next(s.r)
	if keynum >= c.recordCount {
		return fmt.Errorf("workload: load overran recordcount (%d)", keynum)
	}
	return d.Insert(ctx, c.table, c.keyName(keynum), balanceRecord(c.initialBalance(keynum)))
}

// Do implements Workload: one closed-economy operation.
func (c *ClosedEconomyWorkload) Do(ctx context.Context, d db.DB, ts ThreadState) (OpType, error) {
	s := ts.(*cewThreadState)
	s.potDelta = 0
	op := OpType(s.opChoose.NextString(s.r))
	var err error
	switch op {
	case OpRead:
		err = c.doRead(ctx, d, s)
	case OpUpdate:
		err = c.doUpdate(ctx, d, s)
	case OpInsert:
		err = c.doInsert(ctx, d, s)
	case OpScan:
		err = c.doScan(ctx, d, s)
	case OpDelete:
		err = c.doDelete(ctx, d, s)
	case OpRMW:
		err = c.doReadModifyWrite(ctx, d, s)
	default:
		return op, fmt.Errorf("workload: unimplemented op %q", op)
	}
	c.ops.Add(1)
	return op, err
}

func (c *ClosedEconomyWorkload) doRead(ctx context.Context, d db.DB, s *cewThreadState) error {
	_, err := d.Read(ctx, c.table, c.keyName(s.keyChoose.Next(s.r)), nil)
	return err
}

func (c *ClosedEconomyWorkload) doScan(ctx context.Context, d db.DB, s *cewThreadState) error {
	_, err := d.Scan(ctx, c.table, c.keyName(s.keyChoose.Next(s.r)), int(s.scanLen.Next(s.r)), nil)
	return err
}

// doUpdate reads an account, adds $1 captured from deletes (if the
// pot has any), and writes it back.
func (c *ClosedEconomyWorkload) doUpdate(ctx context.Context, d db.DB, s *cewThreadState) error {
	key := c.keyName(s.keyChoose.Next(s.r))
	rec, err := d.Read(ctx, c.table, key, nil)
	if err != nil {
		return err
	}
	bal, err := parseBalance(db.MapFields(rec))
	if err != nil {
		return err
	}
	grant := c.withdrawPot(s, 1)
	if err := d.Update(ctx, c.table, key, balanceRecord(bal+grant)); err != nil {
		c.depositPot(s, grant)
		return err
	}
	return nil
}

// doDelete reads an account, captures its balance into the pot, and
// deletes the record.
func (c *ClosedEconomyWorkload) doDelete(ctx context.Context, d db.DB, s *cewThreadState) error {
	key := c.keyName(s.keyChoose.Next(s.r))
	rec, err := d.Read(ctx, c.table, key, nil)
	if err != nil {
		return err
	}
	bal, err := parseBalance(db.MapFields(rec))
	if err != nil {
		return err
	}
	if err := d.Delete(ctx, c.table, key); err != nil {
		return err
	}
	c.depositPot(s, bal)
	return nil
}

// doInsert creates a new account funded entirely from the pot.
func (c *ClosedEconomyWorkload) doInsert(ctx context.Context, d db.DB, s *cewThreadState) error {
	funding := c.drainPot(s)
	keynum := c.insertSeq.Next(s.r)
	if err := d.Insert(ctx, c.table, c.keyName(keynum), balanceRecord(funding)); err != nil {
		c.depositPot(s, funding)
		return err
	}
	c.insertSeq.Acknowledge(keynum)
	return nil
}

// doReadModifyWrite reads two accounts, moves $1 from the first to
// the second, and writes both back.
func (c *ClosedEconomyWorkload) doReadModifyWrite(ctx context.Context, d db.DB, s *cewThreadState) error {
	start := time.Now()
	err := c.rmwOnce(ctx, d, s)
	if s.rmw != nil {
		s.rmw.Measure(time.Since(start), db.ReturnCode(err))
	}
	return err
}

func (c *ClosedEconomyWorkload) rmwOnce(ctx context.Context, d db.DB, s *cewThreadState) error {
	k1 := s.keyChoose.Next(s.r)
	k2 := s.keyChoose.Next(s.r)
	if k1 == k2 {
		k2 = (k1 + 1) % c.recordCount
	}
	from, to := c.keyName(k1), c.keyName(k2)
	fromRec, err := d.Read(ctx, c.table, from, nil)
	if err != nil {
		return err
	}
	toRec, err := d.Read(ctx, c.table, to, nil)
	if err != nil {
		return err
	}
	fromBal, err := parseBalance(db.MapFields(fromRec))
	if err != nil {
		return err
	}
	toBal, err := parseBalance(db.MapFields(toRec))
	if err != nil {
		return err
	}
	if err := d.Update(ctx, c.table, from, balanceRecord(fromBal-1)); err != nil {
		return err
	}
	return d.Update(ctx, c.table, to, balanceRecord(toBal+1))
}

// withdrawPot takes up to amount from the escrow pot and returns how
// much it actually got, recording the change against the thread's
// in-flight operation.
func (c *ClosedEconomyWorkload) withdrawPot(s *cewThreadState, amount int64) int64 {
	for {
		cur := c.pot.Load()
		take := amount
		if take > cur {
			take = cur
		}
		if take <= 0 {
			return 0
		}
		if c.pot.CompareAndSwap(cur, cur-take) {
			s.potDelta -= take
			return take
		}
	}
}

// drainPot empties the escrow pot.
func (c *ClosedEconomyWorkload) drainPot(s *cewThreadState) int64 {
	for {
		cur := c.pot.Load()
		if cur <= 0 {
			return 0
		}
		if c.pot.CompareAndSwap(cur, 0) {
			s.potDelta -= cur
			return cur
		}
	}
}

func (c *ClosedEconomyWorkload) depositPot(s *cewThreadState, amount int64) {
	if amount != 0 {
		c.pot.Add(amount)
		s.potDelta += amount
	}
}

// OnAbort implements AbortAware: when the transaction wrapping the
// thread's last operation aborts, its buffered database writes vanish
// — so the pot change that mirrored them must vanish too, or money
// would leak in or out of the closed economy.
func (c *ClosedEconomyWorkload) OnAbort(ts ThreadState) {
	s, ok := ts.(*cewThreadState)
	if !ok || s.potDelta == 0 {
		return
	}
	c.pot.Add(-s.potDelta)
	s.potDelta = 0
}

// Pot returns the current escrow balance (for tests and reporting).
func (c *ClosedEconomyWorkload) Pot() int64 { return c.pot.Load() }

// Operations returns the number of operations executed so far.
func (c *ClosedEconomyWorkload) Operations() int64 { return c.ops.Load() }

// TotalCash returns the configured economy size.
func (c *ClosedEconomyWorkload) TotalCash() int64 { return c.totalCash }

// Validate implements the Tier 6 consistency stage: iterate every
// account, sum the balances (plus the client-side escrow pot) and
// compare against totalcash. The anomaly score is the paper's
//
//	γ = |S_initial − S_final| / n
func (c *ClosedEconomyWorkload) Validate(ctx context.Context, d db.DB) (*ValidationResult, error) {
	var sum int64
	var count int64
	startKey := ""
	for {
		kvs, err := d.Scan(ctx, c.table, startKey, c.batchSize, nil)
		if err != nil {
			return nil, fmt.Errorf("workload: validation scan: %w", err)
		}
		if len(kvs) == 0 {
			break
		}
		for _, kv := range kvs {
			if kv.Key == startKey {
				continue // batches overlap by one key
			}
			bal, err := parseBalance(kv.Fields)
			if err != nil {
				return nil, err
			}
			sum += bal
			count++
		}
		if len(kvs) < c.batchSize {
			break
		}
		startKey = kvs[len(kvs)-1].Key
	}
	counted := sum + c.pot.Load()
	n := c.ops.Load()
	score := 0.0
	if n > 0 {
		score = math.Abs(float64(c.totalCash-counted)) / float64(n)
	} else if counted != c.totalCash {
		score = math.Abs(float64(c.totalCash - counted))
	}
	return &ValidationResult{
		Valid:        counted == c.totalCash,
		Expected:     c.totalCash,
		Counted:      counted,
		Operations:   n,
		AnomalyScore: score,
		Detail: fmt.Sprintf("%d accounts, sum %d + pot %d = %d vs totalcash %d",
			count, sum, c.pot.Load(), counted, c.totalCash),
	}, nil
}
