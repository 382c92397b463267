package workload

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/generator"
	"ycsbt/internal/measurement"
	"ycsbt/internal/properties"
)

// CoreWorkload is a port of com.yahoo.ycsb.workloads.CoreWorkload:
// the standard YCSB mix of read/update/insert/scan/read-modify-write
// operations over a table of records with randomly generated fields.
// All of the YCSB core properties are honoured (defaults in
// parentheses):
//
//	table            (usertable)   fieldcount        (10)
//	fieldlength      (100)         fieldlengthdistribution (constant:
//	                               constant|uniform|zipfian)
//	readallfields    (true)
//	writeallfields   (false)       readproportion    (0.95)
//	updateproportion (0.05)        insertproportion  (0)
//	scanproportion   (0)           readmodifywriteproportion (0)
//	requestdistribution (uniform: uniform|zipfian|latest|sequential|
//	                     hotspot|exponential)
//	maxscanlength    (1000)        scanlengthdistribution (uniform)
//	insertstart      (0)           recordcount       (1000)
//	insertorder      (hashed)      zeropadding       (1)
//	hotspotdatafraction (0.2)      hotspotopnfraction (0.8)
//	core_workload_insertion_retry_limit (0)
//	seed             (42)            dataintegrity (false)
//
// With dataintegrity=true, field values are a deterministic function
// of (key, field name), every read and scan verifies the returned
// records, and Validate reports corrupt reads — YCSB's data-integrity
// checking, which complements Tier 6: Tier 6 detects isolation
// anomalies, integrity checking detects stores returning wrong bytes.
// The canonical value of a field is fieldlength bytes of word stream:
// the FNV-1a hash of the key, continued over the field name, seeds
// word j = splitmix64(seed + (j+1)·γ), whose bytes are masked to six
// bits and lifted into '0'..'o' (integrityWord). A record fails when a
// field asked for is missing or any byte of a returned field differs
// from its canonical value; a read or scan with at least one failing
// record is one corrupt operation.
//
// Otherwise CoreWorkload has no consistency invariant and Validate
// returns the paper's default no-op result.
type CoreWorkload struct {
	table        string
	fieldCount   int
	fieldLength  int
	fieldLenDist string
	readAll      bool
	writeAll     bool
	recordCount  int64
	insertStart  int64
	orderedKeys  bool
	zeroPadding  int
	maxScanLen   int64
	uniformScan  bool
	distName     string
	seed         int64

	dataIntegrity bool
	fieldNames    []string // field0..field<fieldcount-1>
	sortedNames   []string // fieldNames in name order (recordOK)

	opChooser    *generator.Discrete
	keyLow       int64
	loadSeq      *generator.Counter
	insertSeq    *generator.AcknowledgedCounter
	reg          *measurement.Registry
	proportionOf map[OpType]float64

	ops            atomic.Int64
	corruptOps     atomic.Int64 // operations that read at least one failing record
	verifyFailures atomic.Int64 // failing records
	verifiedReads  atomic.Int64 // records verified
}

// NewCore returns an uninitialized CoreWorkload.
func NewCore() *CoreWorkload { return &CoreWorkload{} }

func init() {
	Register("core", func() Workload { return NewCore() })
	Register("com.yahoo.ycsb.workloads.CoreWorkload", func() Workload { return NewCore() })
}

// coreThreadState is the per-thread generator bundle.
type coreThreadState struct {
	r         *rand.Rand
	keyChoose generator.Integer
	scanLen   generator.Integer
	opChoose  *generator.Discrete
	fieldGen  *generator.Uniform
	fieldLen  generator.Integer
	rmw       *measurement.SeriesRecorder
}

// Init implements Workload.
func (c *CoreWorkload) Init(p *properties.Properties, reg *measurement.Registry) error {
	c.reg = reg
	c.table = p.GetString("table", "usertable")
	c.fieldCount = p.GetInt("fieldcount", 10)
	c.fieldLength = p.GetInt("fieldlength", 100)
	c.fieldNames = make([]string, c.fieldCount)
	for i := range c.fieldNames {
		c.fieldNames[i] = fieldName(i)
	}
	c.sortedNames = slices.Clone(c.fieldNames)
	slices.Sort(c.sortedNames)
	c.fieldLenDist = p.GetString("fieldlengthdistribution", "constant")
	switch c.fieldLenDist {
	case "constant", "uniform", "zipfian":
	default:
		return fmt.Errorf("workload: unknown fieldlengthdistribution %q", c.fieldLenDist)
	}
	c.readAll = p.GetBool("readallfields", true)
	c.writeAll = p.GetBool("writeallfields", false)
	c.recordCount = p.GetInt64("recordcount", 1000)
	if c.recordCount <= 0 {
		return fmt.Errorf("workload: recordcount must be positive, got %d", c.recordCount)
	}
	c.insertStart = p.GetInt64("insertstart", 0)
	c.orderedKeys = p.GetString("insertorder", "hashed") == "ordered"
	c.zeroPadding = p.GetInt("zeropadding", 1)
	c.maxScanLen = p.GetInt64("maxscanlength", 1000)
	c.uniformScan = p.GetString("scanlengthdistribution", "uniform") == "uniform"
	c.distName = p.GetString("requestdistribution", "uniform")
	c.seed = p.GetInt64("seed", 42)
	c.dataIntegrity = p.GetBool("dataintegrity", false)

	read := p.GetFloat("readproportion", 0.95)
	update := p.GetFloat("updateproportion", 0.05)
	insert := p.GetFloat("insertproportion", 0)
	scan := p.GetFloat("scanproportion", 0)
	rmw := p.GetFloat("readmodifywriteproportion", 0)
	c.opChooser = generator.NewDiscrete()
	c.proportionOf = map[OpType]float64{}
	for _, e := range []struct {
		op   OpType
		prop float64
	}{
		{OpRead, read}, {OpUpdate, update}, {OpInsert, insert}, {OpScan, scan}, {OpRMW, rmw},
	} {
		if e.prop < 0 {
			return fmt.Errorf("workload: negative proportion for %s", e.op)
		}
		c.opChooser.Add(e.prop, string(e.op))
		c.proportionOf[e.op] = e.prop
	}
	c.keyLow = c.insertStart
	c.loadSeq = generator.NewCounter(c.insertStart)
	c.insertSeq = generator.NewAcknowledgedCounter(c.insertStart + c.recordCount)
	return nil
}

// InitThread implements Workload.
func (c *CoreWorkload) InitThread(id, count int) (ThreadState, error) {
	if count <= 0 {
		return nil, fmt.Errorf("workload: thread count %d", count)
	}
	ts := &coreThreadState{r: threadRand(c.seed, id), opChoose: c.opChooser.Clone()}
	upper := c.insertStart + c.recordCount - 1
	switch c.distName {
	case "uniform":
		ts.keyChoose = generator.NewUniform(c.keyLow, upper)
	case "zipfian":
		// Like YCSB: size the zipfian over the expected final keyspace
		// so inserts during the run stay in range.
		ts.keyChoose = generator.NewScrambledZipfian(c.keyLow, upper)
	case "latest":
		ts.keyChoose = generator.NewSkewedLatest(c.insertSeq)
	case "sequential":
		ts.keyChoose = generator.NewSequential(c.keyLow, upper)
	case "hotspot":
		ts.keyChoose = generator.NewHotspot(c.keyLow, upper, 0.2, 0.8)
	case "exponential":
		ts.keyChoose = generator.NewExponential(95, 0.8571428571, c.recordCount)
	default:
		return nil, fmt.Errorf("workload: unknown requestdistribution %q", c.distName)
	}
	if c.uniformScan {
		ts.scanLen = generator.NewUniform(1, c.maxScanLen)
	} else {
		ts.scanLen = generator.NewZipfian(1, c.maxScanLen)
	}
	ts.fieldGen = generator.NewUniform(0, int64(c.fieldCount-1))
	switch c.fieldLenDist {
	case "uniform":
		ts.fieldLen = generator.NewUniform(1, int64(c.fieldLength))
	case "zipfian":
		ts.fieldLen = generator.NewZipfian(1, int64(c.fieldLength))
	default:
		ts.fieldLen = generator.NewConstant(int64(c.fieldLength))
	}
	if c.reg != nil {
		// Thread-private series handle: the RMW hot path writes to its
		// own shard instead of funnelling through the shared one.
		ts.rmw = c.reg.Recorder().Series(string(OpRMW))
	}
	return ts, nil
}

// keyName formats a key number the way YCSB does: optionally hashed,
// zero-padded, "user"-prefixed.
func (c *CoreWorkload) keyName(keynum int64) string {
	if !c.orderedKeys {
		keynum = generator.FNVHash64(keynum)
	}
	s := strconv.FormatInt(keynum, 10)
	if pad := c.zeroPadding - len(s); pad > 0 {
		buf := make([]byte, 0, c.zeroPadding+4)
		buf = append(buf, "user"...)
		for i := 0; i < pad; i++ {
			buf = append(buf, '0')
		}
		return string(append(buf, s...))
	}
	return "user" + s
}

// nextKey draws an existing key, clamped to the acknowledged insert
// frontier for the "latest" distribution.
func (c *CoreWorkload) nextKey(ts *coreThreadState) int64 {
	for {
		k := ts.keyChoose.Next(ts.r)
		if c.distName == "latest" {
			// Only acknowledged inserts are safe to read; newly
			// inserted keys above the initial range are fair game.
			if k <= c.insertSeq.Last() {
				return k
			}
			continue
		}
		// Unbounded distributions (exponential) clamp to the loaded
		// keyspace.
		if k > c.insertStart+c.recordCount-1 {
			k = c.insertStart + c.recordCount - 1
		}
		return k
	}
}

// buildValues generates a full record: random bytes, or — with
// dataintegrity — bytes derived deterministically from the key and
// field name so any read can verify them.
func (c *CoreWorkload) buildValues(s *coreThreadState, key string) db.Record {
	rec := make(db.Record, c.fieldCount)
	for _, f := range c.fieldNames {
		if c.dataIntegrity {
			// Integrity checking requires deterministic lengths.
			rec[f] = integrityValue(key, f, c.fieldLength)
		} else {
			rec[f] = randomValue(s.r, int(s.fieldLen.Next(s.r)))
		}
	}
	return rec
}

// integrityValue derives the canonical value of key/field, word by word
// (see integrityWord), reproducible by any reader. A value's first m
// bytes are the canonical m-byte value.
func integrityValue(key, field string, n int) []byte {
	h := integritySeed(integrityKey(key), field)
	out := make([]byte, n)
	for j := 0; 8*j < n; j++ {
		w := integrityWord(h, j)
		if rest := out[8*j:]; len(rest) >= 8 {
			binary.LittleEndian.PutUint64(rest, w)
		} else {
			for i := range rest {
				rest[i] = byte(w)
				w >>= 8
			}
		}
	}
	return out
}

// integrityOK reports whether v is the canonical n-byte value of field
// under a record's key hash, comparing it eight bytes at a time against
// the generator's words instead of building the expected value: a scan
// verifies a thousand fields per operation.
func integrityOK(keyHash uint64, field string, v []byte, n int) bool {
	if len(v) != n {
		return false
	}
	h := integritySeed(keyHash, field)
	j := 0
	for ; len(v) >= 8; v = v[8:] {
		if binary.LittleEndian.Uint64(v) != integrityWord(h, j) {
			return false
		}
		j++
	}
	w := integrityWord(h, j)
	for _, b := range v {
		if b != byte(w) {
			return false
		}
		w >>= 8
	}
	return true
}

// integrityKey hashes a record's key; integritySeed continues the hash
// over one of its field names.
func integrityKey(key string) uint64 { return integritySeed(fnvOffsetCore, key) }

func integritySeed(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrimeCore
	}
	return h
}

// integrityWord is bytes 8j..8j+7 of the value seeded by h, little
// endian: splitmix64's finaliser over h + (j+1)·γ, each byte's low six
// bits mapped onto the 64 printable characters '0'..'o'. Every word is
// independent of the others, so a check compares them in any order and
// the CPU overlaps their multiplies.
func integrityWord(h uint64, j int) uint64 {
	x := h + uint64(j+1)*0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return x&0x3F3F3F3F3F3F3F3F + 0x3030303030303030
}

const (
	fnvOffsetCore = 0xCBF29CE484222325
	fnvPrimeCore  = 0x100000001B3
)

// verifyRead checks the record one read returned against the canonical
// values.
func (c *CoreWorkload) verifyRead(key string, rec db.Record, fields []string) {
	if !c.dataIntegrity {
		return
	}
	c.verifiedReads.Add(1)
	if !c.mapOK(key, rec, fields) {
		c.verifyFailures.Add(1)
		c.corruptOps.Add(1)
	}
}

// mapOK is recordOK for a map, by lookup: each field asked for (nil:
// all fieldcount fields) must be present and canonical, and only a
// record holding more fields than that is walked for the rest.
func (c *CoreWorkload) mapOK(key string, rec db.Record, fields []string) bool {
	if fields == nil {
		fields = c.fieldNames
	}
	keyHash := integrityKey(key)
	for _, f := range fields {
		v, ok := rec[f]
		if !ok || !integrityOK(keyHash, f, v, c.fieldLength) {
			return false
		}
	}
	if len(rec) == len(fields) {
		return true // the map's keys are the fields just checked
	}
	for f, v := range rec {
		if !integrityOK(keyHash, f, v, c.fieldLength) {
			return false
		}
	}
	return true
}

// verifyScan checks every record one scan returned; the scan is one
// corrupt operation however many of them fail.
func (c *CoreWorkload) verifyScan(kvs []db.KV, fields []string) {
	if !c.dataIntegrity {
		return
	}
	bad := 0
	for _, kv := range kvs {
		if !c.recordOK(kv.Key, kv.Fields, fields) {
			bad++
		}
	}
	c.verifiedReads.Add(int64(len(kvs)))
	if bad > 0 {
		c.verifyFailures.Add(int64(bad))
		c.corruptOps.Add(1)
	}
}

// recordOK reports whether rec is canonical: every field asked for
// (nil: all fieldcount fields) must be present, and every field
// returned must hold its canonical bytes. One pass over the record
// checks every field it returned and ticks off the fields asked for
// that it meets in their order — a section's walk meets all of them, in
// name order —, so only a field not met so (a map's fields come in any
// order, or it is missing) is looked up after.
func (c *CoreWorkload) recordOK(key string, rec db.Fields, fields []string) bool {
	if fields == nil {
		fields = c.sortedNames
	}
	keyHash := integrityKey(key)
	ok, met := true, 0
	rec.Range(func(f string, v []byte) bool {
		if met < len(fields) && fields[met] == f {
			met++
		}
		ok = integrityOK(keyHash, f, v, c.fieldLength)
		return ok
	})
	if !ok {
		return false
	}
	for _, f := range fields[met:] {
		if _, found := rec.Get(f); !found {
			return false
		}
	}
	return true
}

// buildUpdate generates the values for an update: all fields or one
// random field per writeallfields.
func (c *CoreWorkload) buildUpdate(ts *coreThreadState, key string) db.Record {
	if c.writeAll {
		return c.buildValues(ts, key)
	}
	f := c.fieldNames[ts.fieldGen.Next(ts.r)]
	if c.dataIntegrity {
		return db.Record{f: integrityValue(key, f, c.fieldLength)}
	}
	return db.Record{f: randomValue(ts.r, int(ts.fieldLen.Next(ts.r)))}
}

// readFields returns the field projection for reads: nil for all
// fields, else one field name, sliced so that an append cannot write
// into fieldNames.
func (c *CoreWorkload) readFields(ts *coreThreadState) []string {
	if c.readAll {
		return nil
	}
	i := ts.fieldGen.Next(ts.r)
	return c.fieldNames[i : i+1 : i+1]
}

// Load implements Workload: one sequential insert filling
// [insertstart, insertstart+recordcount). The transaction-phase
// insert frontier (insertSeq) starts past that range and is not
// advanced here.
func (c *CoreWorkload) Load(ctx context.Context, d db.DB, ts ThreadState) error {
	s := ts.(*coreThreadState)
	keynum := c.loadSeq.Next(s.r)
	key := c.keyName(keynum)
	return d.Insert(ctx, c.table, key, c.buildValues(s, key))
}

// Do implements Workload: one operation per the configured mix.
func (c *CoreWorkload) Do(ctx context.Context, d db.DB, ts ThreadState) (OpType, error) {
	s := ts.(*coreThreadState)
	op := OpType(s.opChoose.NextString(s.r))
	c.ops.Add(1)
	switch op {
	case OpRead:
		key := c.keyName(c.nextKey(s))
		fields := c.readFields(s)
		rec, err := d.Read(ctx, c.table, key, fields)
		if err == nil {
			c.verifyRead(key, rec, fields)
		}
		return op, err
	case OpUpdate:
		key := c.keyName(c.nextKey(s))
		return op, d.Update(ctx, c.table, key, c.buildUpdate(s, key))
	case OpInsert:
		keynum := c.insertSeq.Next(s.r)
		key := c.keyName(keynum)
		err := d.Insert(ctx, c.table, key, c.buildValues(s, key))
		if err == nil {
			c.insertSeq.Acknowledge(keynum)
		}
		return op, err
	case OpScan:
		fields := c.readFields(s)
		kvs, err := d.Scan(ctx, c.table, c.keyName(c.nextKey(s)), int(s.scanLen.Next(s.r)), fields)
		if err == nil {
			c.verifyScan(kvs, fields)
		}
		return op, err
	case OpRMW:
		start := time.Now()
		key := c.keyName(c.nextKey(s))
		fields := c.readFields(s)
		rec, err := d.Read(ctx, c.table, key, fields)
		if err == nil {
			c.verifyRead(key, rec, fields)
			err = d.Update(ctx, c.table, key, c.buildUpdate(s, key))
		}
		if s.rmw != nil {
			s.rmw.Measure(time.Since(start), db.ReturnCode(err))
		}
		return op, err
	default:
		return op, fmt.Errorf("workload: unimplemented op %q", op)
	}
}

// Validate implements Workload. Without dataintegrity this is the
// paper's default no-op: valid, score 0. With it, Counted is the
// operations that read at least one record whose bytes did not match
// the canonical derived values, and the anomaly score is their share of
// all operations, so 0 ≤ score ≤ 1 however many rows one scan got
// wrong; Detail counts the failing records.
func (c *CoreWorkload) Validate(context.Context, db.DB) (*ValidationResult, error) {
	if !c.dataIntegrity {
		return &ValidationResult{Valid: true, Detail: "core workload has no consistency check"}, nil
	}
	corrupt := c.corruptOps.Load()
	n := c.ops.Load()
	score := 0.0
	if n > 0 {
		score = float64(corrupt) / float64(n)
	}
	return &ValidationResult{
		Valid:        corrupt == 0,
		Counted:      corrupt,
		Operations:   n,
		AnomalyScore: score,
		Detail: fmt.Sprintf("%d of %d verified reads returned corrupt data",
			c.verifyFailures.Load(), c.verifiedReads.Load()),
	}, nil
}

// fieldName returns "field<i>".
func fieldName(i int) string { return "field" + strconv.Itoa(i) }

// randomValue builds a printable random value of length n.
func randomValue(r *rand.Rand, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return out
}
