// Package measurement collects and reports the per-operation latency
// metrics of a YCSB+T run.
//
// Every database operation type gets its own named series: the raw
// CRUD series ("READ", "UPDATE", …), the transaction-demarcation
// series ("START", "COMMIT", "ABORT"), and — for Tier 5, transactional
// overhead — one "TX-<TYPE>" series per workload operation type that
// records the latency of the whole wrapping transaction. The text
// exporter reproduces the output format of Listing 3 in the paper:
//
//	[UPDATE], Operations, 200206
//	[UPDATE], AverageLatency(us), 1536.4616944547117
//	[UPDATE], MinLatency(us), 1202
//	[UPDATE], MaxLatency(us), 80946
//	[UPDATE], Return=0, 200206
//
// # Sharded recording
//
// The hot path is lock-free: a Series is a set of shards, each a block
// of plain atomics (count, sum, min/max, 1-ms histogram, and a fixed
// return-code array — no map, no mutex). Client threads obtain a
// per-thread Recorder from the Registry; each Recorder writes to its
// own private shard per series, so concurrent threads never touch the
// same cache lines on the per-operation path. Readers
// (Snapshot/Export*) merge all shards at read time, which is the cold
// path. Series.Measure without a Recorder is still supported and
// lock-free; it writes to a shared multi-writer shard.
package measurement

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// defaultHistogramBuckets is the number of 1-ms histogram buckets
// maintained for percentile estimation, matching YCSB's default.
const defaultHistogramBuckets = 1000

// maxReturnSlots sizes the fixed per-shard return-code array. Codes
// 0..maxReturnSlots-2 index their own slot; every other code
// (negative, e.g. the -1 "unknown error" code, or overflow) shares
// the final slot and is reported back as code -1.
const maxReturnSlots = 16

// returnSlot maps a return code onto its array slot.
func returnSlot(code int) int {
	if code >= 0 && code < maxReturnSlots-1 {
		return code
	}
	return maxReturnSlots - 1
}

// shard is one writer's view of a series: a block of atomics with no
// interior locking. A shard handed to a Recorder has a single writing
// goroutine in the common case, but every update is a full atomic
// RMW, so sharing one (Series.Measure's shared shard) stays correct —
// merely contended. There is deliberately no operation counter: the
// count is the sum of the return-code array, recovered at snapshot
// time, which keeps one atomic off the per-operation path.
type shard struct {
	sumUS   atomic.Int64
	minUS   atomic.Int64 // math.MaxInt64 until first measurement
	maxUS   atomic.Int64
	returns [maxReturnSlots]atomic.Int64
	// histogram of latencies in 1-ms buckets; the final slot counts
	// overflow (latency ≥ len-1 ms).
	buckets []atomic.Int64
}

func newShard(nbuckets int) *shard {
	sh := &shard{buckets: make([]atomic.Int64, nbuckets+1)}
	sh.minUS.Store(math.MaxInt64)
	return sh
}

func (sh *shard) measure(latency time.Duration, returnCode int) {
	us := latency.Microseconds()
	if us < 0 {
		us = 0
	}
	sh.sumUS.Add(us)
	for {
		cur := sh.minUS.Load()
		if us >= cur || sh.minUS.CompareAndSwap(cur, us) {
			break
		}
	}
	for {
		cur := sh.maxUS.Load()
		if us <= cur || sh.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
	ms := us / 1000
	if ms >= int64(len(sh.buckets)-1) {
		ms = int64(len(sh.buckets) - 1)
	}
	sh.buckets[ms].Add(1)
	sh.returns[returnSlot(returnCode)].Add(1)
}

// Series accumulates latency measurements for one operation type.
type Series struct {
	name     string
	nbuckets int

	// shared is the multi-writer shard behind Series.Measure, for
	// callers that never allocated a Recorder.
	shared shard

	// extra holds the Recorder-owned shards. The slice is replaced
	// copy-on-write (guarded by grow) so readers can load it without
	// locking; Measure never touches grow.
	grow  sync.Mutex
	extra atomic.Pointer[[]*shard]
}

func newSeries(name string, nbuckets int) *Series {
	if nbuckets <= 0 {
		nbuckets = defaultHistogramBuckets
	}
	s := &Series{name: name, nbuckets: nbuckets}
	s.shared.buckets = make([]atomic.Int64, nbuckets+1)
	s.shared.minUS.Store(math.MaxInt64)
	return s
}

// Name returns the series name, e.g. "READ" or "TX-READMODIFYWRITE".
func (s *Series) Name() string { return s.name }

// Measure records one operation with the given latency and return
// code (0 = success, like YCSB's Status ordinals) into the shared
// shard. Lock-free; prefer a Recorder handle on hot paths so threads
// write disjoint shards.
func (s *Series) Measure(latency time.Duration, returnCode int) {
	s.shared.measure(latency, returnCode)
}

// newShard allocates a fresh single-writer shard and links it into
// the series. Called once per (Recorder, series); not a hot path.
func (s *Series) newShard() *shard {
	sh := newShard(s.nbuckets)
	s.grow.Lock()
	old := s.extra.Load()
	var next []*shard
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, sh)
	s.extra.Store(&next)
	s.grow.Unlock()
	return sh
}

// allShards returns the shared shard plus every recorder shard.
func (s *Series) allShards() []*shard {
	out := []*shard{&s.shared}
	if extra := s.extra.Load(); extra != nil {
		out = append(out, *extra...)
	}
	return out
}

// Summary is a point-in-time snapshot of a series.
type Summary struct {
	Name       string        `json:"name"`
	Operations int64         `json:"operations"`
	AvgUS      float64       `json:"avg_us"`
	MinUS      int64         `json:"min_us"`
	MaxUS      int64         `json:"max_us"`
	P50MS      int64         `json:"p50_ms"`
	P95MS      int64         `json:"p95_ms"`
	P99MS      int64         `json:"p99_ms"`
	Returns    map[int]int64 `json:"returns"`
}

// Snapshot merges every shard into a consistent-enough summary.
// Usually called after the run completes; mid-run calls (the status
// reporter) may observe operations mid-flight, which is fine for
// progress reporting.
func (s *Series) Snapshot() Summary {
	var (
		n, sum  int64
		minUS   int64 = math.MaxInt64
		maxUS   int64
		returns [maxReturnSlots]int64
	)
	buckets := make([]int64, s.nbuckets+1)
	for _, sh := range s.allShards() {
		// The operation count is the sum of the return counts, taken
		// from the same loads so the two cannot tear under writers.
		var rs [maxReturnSlots]int64
		var c int64
		for i := range sh.returns {
			rs[i] = sh.returns[i].Load()
			c += rs[i]
		}
		if c == 0 {
			continue
		}
		n += c
		sum += sh.sumUS.Load()
		if m := sh.minUS.Load(); m < minUS {
			minUS = m
		}
		if m := sh.maxUS.Load(); m > maxUS {
			maxUS = m
		}
		for i := range sh.buckets {
			buckets[i] += sh.buckets[i].Load()
		}
		for i, r := range rs {
			returns[i] += r
		}
	}
	if n == 0 {
		minUS = 0
	}
	out := Summary{
		Name:       s.name,
		Operations: n,
		MinUS:      minUS,
		MaxUS:      maxUS,
		Returns:    make(map[int]int64),
	}
	if n > 0 {
		out.AvgUS = float64(sum) / float64(n)
	}
	out.P50MS = percentileMS(buckets, n, 0.50)
	out.P95MS = percentileMS(buckets, n, 0.95)
	out.P99MS = percentileMS(buckets, n, 0.99)
	for slot, c := range returns {
		if c == 0 {
			continue
		}
		code := slot
		if slot == maxReturnSlots-1 {
			code = -1
		}
		out.Returns[code] = c
	}
	return out
}

// percentileMS estimates the p-th percentile latency in milliseconds
// from a merged bucket histogram.
func percentileMS(buckets []int64, n int64, p float64) int64 {
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(float64(n) * p))
	var cum int64
	for i, c := range buckets {
		cum += c
		if cum >= target {
			return int64(i)
		}
	}
	return int64(len(buckets) - 1)
}

// HistogramBucket returns the count of measurements that fell in the
// i-th 1-ms bucket (the final index is the overflow bucket), merged
// across shards.
func (s *Series) HistogramBucket(i int) int64 {
	if i < 0 || i > s.nbuckets {
		return 0
	}
	var total int64
	for _, sh := range s.allShards() {
		total += sh.buckets[i].Load()
	}
	return total
}

// NumBuckets returns the number of histogram buckets including the
// overflow slot.
func (s *Series) NumBuckets() int { return s.nbuckets + 1 }

// Registry holds all measurement series of one benchmark run.
type Registry struct {
	mu             sync.RWMutex
	series         map[string]*Series
	histogramCount int // buckets to *print*; 0 disables bucket lines
}

// NewRegistry returns an empty registry. printBuckets controls how
// many histogram bucket lines the text exporter prints per series
// (the "histogram.buckets" workload property; 0 disables).
func NewRegistry(printBuckets int) *Registry {
	return &Registry{
		series:         make(map[string]*Series),
		histogramCount: printBuckets,
	}
}

// Series returns the series with the given name, creating it when
// absent. Safe for concurrent use.
func (r *Registry) Series(name string) *Series {
	r.mu.RLock()
	s, ok := r.series[name]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok = r.series[name]; ok {
		return s
	}
	s = newSeries(name, defaultHistogramBuckets)
	r.series[name] = s
	return s
}

// Measure records one measurement in the named series' shared shard.
// Convenience slow-ish path (map lookup under RLock); hot loops should
// hold a Recorder handle instead.
func (r *Registry) Measure(name string, latency time.Duration, returnCode int) {
	r.Series(name).Measure(latency, returnCode)
}

// Recorder is a per-thread front end to the registry: each series
// handle it resolves is backed by a private shard, so measurements
// from distinct Recorders never contend. Handle resolution takes a
// small lock; do it once (Series) and measure through the returned
// handle on the hot path. A Recorder is safe for concurrent use, but
// sharing one across threads shares its shards and reintroduces
// contention.
type Recorder struct {
	reg     *Registry
	mu      sync.Mutex
	handles map[string]*SeriesRecorder
}

// Recorder allocates a new per-thread recorder over the registry.
func (r *Registry) Recorder() *Recorder {
	return &Recorder{reg: r, handles: make(map[string]*SeriesRecorder)}
}

// Series resolves (once) the recorder's private handle for a series.
func (rec *Recorder) Series(name string) *SeriesRecorder {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if h, ok := rec.handles[name]; ok {
		return h
	}
	h := &SeriesRecorder{sh: rec.reg.Series(name).newShard()}
	rec.handles[name] = h
	return h
}

// Measure records into the named series via the recorder's private
// shard (resolving the handle on first use).
func (rec *Recorder) Measure(name string, latency time.Duration, returnCode int) {
	rec.Series(name).Measure(latency, returnCode)
}

// SeriesRecorder is one recorder's handle to one series. Measure is
// the per-operation hot path: a handful of uncontended atomics, no
// map, no mutex.
type SeriesRecorder struct {
	sh *shard
}

// Measure records one operation into the handle's private shard.
func (h *SeriesRecorder) Measure(latency time.Duration, returnCode int) {
	h.sh.measure(latency, returnCode)
}

// Names returns the series names sorted alphabetically, so reports
// and exports are deterministic across runs.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshots returns summaries for every series, sorted by name.
func (r *Registry) Snapshots() []Summary {
	names := r.Names()
	out := make([]Summary, 0, len(names))
	for _, n := range names {
		out = append(out, r.Series(n).Snapshot())
	}
	return out
}

// Snapshot returns the summary for one named series (zero Summary
// when the series does not exist yet).
func (r *Registry) Snapshot(name string) Summary {
	r.mu.RLock()
	s, ok := r.series[name]
	r.mu.RUnlock()
	if !ok {
		return Summary{Name: name, Returns: map[int]int64{}}
	}
	return s.Snapshot()
}

// TotalOperations sums the operation counts of the listed series; it
// is used for the overall-throughput line. When no names are given it
// sums every series.
func (r *Registry) TotalOperations(names ...string) int64 {
	if len(names) == 0 {
		names = r.Names()
	}
	var total int64
	for _, n := range names {
		total += r.Snapshot(n).Operations
	}
	return total
}

// ExportText writes every series that measured at least one
// operation in the paper's Listing 3 format, sorted by series name. A
// series registered up front for a kind the run never issued prints
// nothing, as YCSB's report lists only measured kinds; ExportJSON
// keeps every series.
func (r *Registry) ExportText(w io.Writer) error {
	for _, s := range r.Snapshots() {
		if s.Operations == 0 {
			continue
		}
		if err := exportSeriesText(w, s, r); err != nil {
			return err
		}
	}
	return nil
}

func exportSeriesText(w io.Writer, s Summary, r *Registry) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("[%s], Operations, %d\n", s.Name, s.Operations); err != nil {
		return err
	}
	if err := p("[%s], AverageLatency(us), %g\n", s.Name, s.AvgUS); err != nil {
		return err
	}
	if err := p("[%s], MinLatency(us), %d\n", s.Name, s.MinUS); err != nil {
		return err
	}
	if err := p("[%s], MaxLatency(us), %d\n", s.Name, s.MaxUS); err != nil {
		return err
	}
	if err := p("[%s], 95thPercentileLatency(ms), %d\n", s.Name, s.P95MS); err != nil {
		return err
	}
	if err := p("[%s], 99thPercentileLatency(ms), %d\n", s.Name, s.P99MS); err != nil {
		return err
	}
	codes := make([]int, 0, len(s.Returns))
	for c := range s.Returns {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		if err := p("[%s], Return=%d, %d\n", s.Name, c, s.Returns[c]); err != nil {
			return err
		}
	}
	if r.histogramCount > 0 {
		ser := r.Series(s.Name)
		n := r.histogramCount
		if n > ser.NumBuckets()-1 {
			n = ser.NumBuckets() - 1
		}
		for i := 0; i < n; i++ {
			if err := p("[%s], %d, %d\n", s.Name, i, ser.HistogramBucket(i)); err != nil {
				return err
			}
		}
		var overflow int64
		for i := n; i < ser.NumBuckets(); i++ {
			overflow += ser.HistogramBucket(i)
		}
		if err := p("[%s], >%d, %d\n", s.Name, n-1, overflow); err != nil {
			return err
		}
	}
	return nil
}

// ExportJSON writes every series summary as a JSON array, sorted by
// series name so exports diff cleanly across runs.
func (r *Registry) ExportJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshots())
}

// Timer measures one interval; use Start then observe with Done.
type Timer struct {
	start time.Time
}

// StartTimer begins timing now.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Done returns the elapsed time since StartTimer.
func (t Timer) Done() time.Duration { return time.Since(t.start) }
