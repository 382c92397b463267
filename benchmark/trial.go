package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ycsbt/internal/client"
	"ycsbt/internal/db"
	"ycsbt/internal/history"
	"ycsbt/internal/kvstore"
	"ycsbt/internal/measurement"
	"ycsbt/internal/workload"
)

// trialCfg describes one trial: a fresh stack, a load phase, a run
// phase, and every check.
type trialCfg struct {
	sp   *spec
	seed int64
	// runFor bounds the run phase; with ops > 0 the phase runs that
	// many operations instead (the path-equality test needs equal work).
	runFor  time.Duration
	ops     int64
	threads int
	traced  bool
	// certify attaches a durable history sink and requires the offline
	// checker to certify the run serializable (cew_fleet traced trial).
	certify bool
	// scale divides record counts; 1 for real runs, larger for -smoke.
	scale   int64
	workDir string // parent of the trial's WAL directories
	outDir  string // where span and history files go
}

// latStat summarises one latency class of one trial.
type latStat struct {
	n        int
	p50, p99 float64 // µs, nearest rank
	// ok is false when fewer than ten samples lie beyond the
	// percentile; such a value is reported but flagged.
	p50ok, p99ok bool
}

// trialResult is what one trial measured.
type trialResult struct {
	ops, failed                      int64
	runS, setupS, recoveryS          float64
	throughput, cpuMsPerOp           float64
	peakRSSMiB                       float64
	read, write                      latStat
	anomalyScore                     float64
	layers                           map[string]float64
	shares                           []share // self-time by layer, traced trials
	engineOps                        int64   // kvstore_ops_total over the run phase
	scans, delivered, engineScanRecs int64
	spansWritten                     int
	spansDropped                     int64
	rescans                          int // validation passes repeated, see maxValidationRescans
	problems                         []string
}

// share is one layer's self time as a part of client thread time.
type share struct {
	layer string
	frac  float64
}

func (r *trialResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// counters is a point-in-time reading of everything the run phase is
// charged by difference.
type counters struct {
	cpu                                  time.Duration
	mallocs, allocBytes, pauseNs         uint64
	wal                                  int64
	framesOut, stalls                    int64
	moved                                int64
	commits, aborts, conflicts, recovers int64
	engineOps                            int64
	nodeFrames, nodeChunks               []int64
}

func readCounters(st *stack) counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.pauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	c.wal = st.walBytes()
	c.framesOut = st.counter("kvwire_frames_total", "dir", "out")
	c.stalls = st.counter("kvwire_stream_credits_stalled_total")
	c.moved = st.clientReg.Counter("httpkv_client_moved_total").Value() +
		st.clientReg.Counter("cluster_map_refetch_total").Value()
	if st.mgr != nil {
		c.commits, c.aborts, c.conflicts, c.recovers = st.mgr.Stats()
	}
	for _, nd := range st.nodes {
		c.nodeFrames = append(c.nodeFrames, nd.reg.Counter("kvwire_frames_total", "dir", "in").Value())
		c.nodeChunks = append(c.nodeChunks, nd.reg.Counter("kvwire_scan_chunks_total").Value())
		c.engineOps += engineOpsOf(nd.reg)
	}
	if st.local != nil {
		c.engineOps += engineOpsOf(st.localReg)
	}
	return c
}

// maxValidationRescans bounds how often the Tier 6 stage is read again
// after an invalid total. The store's state cannot heal between two
// reads of a quiescent fleet, so a total that comes out right on a
// later read proves the state consistent and the earlier read short.
// That happens: kvwire's ScanStream.Next selects between a pending
// chunk and the stream's end at random when both are ready, so about
// one validation in a hundred on the fleet loses a chunk of accounts
// (found by this harness; the fix belongs to a change of its own, and
// client.validation_rescans is its before-number). A state anomaly
// stays wrong on every read and still fails the run.
const maxValidationRescans = 4

// chainSpec is the middleware stack of a trial, outermost first.
func chainSpec(traced bool) string {
	if traced {
		return "benchclock,benchspan_outer,metered,benchspan_inner"
	}
	return "benchclock,metered"
}

// runTrial runs one trial. While the stack is still up — after the run
// phase and its checks, before teardown — it calls cells (may be nil)
// so ladder cells measure the very stack the trial decomposed.
func runTrial(cfg trialCfg, cells func(*stack, *trialCfg) (map[string]float64, error)) (*trialResult, error) {
	sp := cfg.sp
	ctx := context.Background()
	records := sp.records / cfg.scale
	if records < 1000 {
		records = 1000
	}
	keep := sp.keepEvery
	if cfg.scale > 1 || cfg.ops > 0 {
		keep = 1
	}
	p := newProbe(cfg.traced, keep)
	active.Store(p)
	defer active.Store(nil)

	workDir, err := os.MkdirTemp(cfg.workDir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	res := &trialResult{layers: map[string]float64{}}

	resetPeakRSS()

	// Set-up: boot the stack and load it.
	t0 := time.Now()
	st, err := bootStack(sp, workDir, p)
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", sp.name, err)
	}
	defer st.close()
	props := sp.properties(cfg.seed, records, cfg.threads)
	runReg := measurement.NewRegistry(0)
	w, err := workload.New(props.GetString("workload", ""))
	if err != nil {
		return nil, err
	}
	if err := w.Init(props, runReg); err != nil {
		return nil, err
	}
	base := client.Config{
		Threads:        cfg.threads,
		RecordCount:    records,
		SkipValidation: true, // validated below, outside the measured phase
		Middleware:     chainSpec(cfg.traced),
		Props:          props,
	}
	loader, err := client.New(base, w, st.binding, measurement.NewRegistry(0))
	if err != nil {
		return nil, err
	}
	lres, err := loader.Load(ctx)
	if err != nil {
		return nil, fmt.Errorf("load phase: %w", err)
	}
	if lres.Aborts != 0 || lres.Operations != records {
		res.problem("load phase: %d of %d inserts done, %d aborted", lres.Operations, records, lres.Aborts)
	}
	runtime.GC() // start every run phase from a collected heap
	res.setupS = time.Since(t0).Seconds()

	// Run phase.
	runCfg := base
	runCfg.OperationCount = cfg.ops
	if cfg.ops <= 0 {
		runCfg.OperationCount = 1 << 40
		runCfg.MaxExecutionTime = cfg.runFor
	}
	var sink *history.Sink
	histPath := filepath.Join(cfg.outDir, sp.name+".history.ndjson")
	if cfg.certify {
		if sink, err = history.OpenFile(histPath, history.SinkOptions{}); err != nil {
			return nil, err
		}
		runCfg.History = sink
	}
	runner, err := client.New(runCfg, w, st.binding, runReg)
	if err != nil {
		return nil, err
	}
	before := readCounters(st)
	p.epoch = time.Now()
	p.on.Store(true)
	rres, err := runner.Run(ctx)
	p.on.Store(false)
	after := readCounters(st)
	if err != nil {
		return nil, fmt.Errorf("run phase: %w", err)
	}
	res.ops, res.failed = rres.Operations, rres.Aborts
	res.runS, res.throughput = rres.RunTime.Seconds(), rres.Throughput
	if res.ops == 0 {
		return nil, errors.New("run phase completed no operation")
	}
	ops := float64(res.ops)
	res.cpuMsPerOp = float64(after.cpu-before.cpu) / float64(time.Millisecond) / ops
	res.peakRSSMiB = peakRSSMiB()
	res.engineOps = after.engineOps - before.engineOps

	userBytes, dbOps := res.readClock(p, runReg)

	// Tier 6 and workload-level correctness.
	v, err := w.Validate(ctx, st.binding)
	for ; err == nil && !v.Valid && res.rescans < maxValidationRescans; res.rescans++ {
		fmt.Printf("# NOTE: validation read an inconsistent total (%s); reading again\n", v.Detail)
		v, err = w.Validate(ctx, st.binding)
	}
	if err != nil {
		return nil, fmt.Errorf("validation stage: %w", err)
	}
	res.anomalyScore = v.AnomalyScore
	if !v.Valid || v.AnomalyScore != 0 {
		res.problem("validation failed: valid=%v anomaly score=%g (%s)", v.Valid, v.AnomalyScore, v.Detail)
	}
	if res.failed != 0 {
		res.problem("%d operations returned a code other than OK", res.failed)
	}

	res.transportGuard(sp, before, after)
	if sink != nil {
		if err := res.certify(sink, histPath); err != nil {
			return nil, err
		}
	}

	// Per-layer numbers that need no spans.
	L := res.layers
	L["db.ops_per_tx"] = float64(dbOps) / ops
	L["client.failed_ops_ratio"] = float64(res.failed) / ops
	L["client.anomaly_score"] = res.anomalyScore
	L["client.validation_rescans"] = float64(res.rescans)
	if begun := float64(after.commits - before.commits + after.aborts - before.aborts); begun > 0 {
		L["txn.commit_ratio"] = float64(after.commits-before.commits) / begun
		L["txn.conflicts_per_ktx"] = 1000 * float64(after.conflicts-before.conflicts) / begun
		L["txn.recovered_per_ktx"] = 1000 * float64(after.recovers-before.recovers) / begun
	}
	L["httpkv.moved_retries_per_kop"] = 1000 * float64(after.moved-before.moved) / ops
	L["kvwire.frames_per_op"] = float64(sum(after.nodeFrames)-sum(before.nodeFrames)+after.framesOut-before.framesOut) / ops
	if res.scans > 0 {
		L["kvwire.scan_chunks_per_scan"] = float64(sum(after.nodeChunks)-sum(before.nodeChunks)) / float64(res.scans)
		L["kvwire.credit_stalls_per_kscan"] = 1000 * float64(after.stalls-before.stalls) / float64(res.scans)
	}
	L["kvstore.wal_bytes_per_op"] = float64(after.wal-before.wal) / ops
	if userBytes > 0 {
		L["kvstore.wal_bytes_per_user_byte"] = float64(after.wal-before.wal) / float64(userBytes)
	}
	L["proc.allocs_per_op"] = float64(after.mallocs-before.mallocs) / ops
	L["proc.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
	L["proc.gc_pause_ms_per_s"] = float64(after.pauseNs-before.pauseNs) / 1e6 / res.runS
	if cfg.traced {
		res.spanMetrics(p, sp, cfg.threads)
		if cfg.outDir != "" {
			n, err := p.writeSpans(filepath.Join(cfg.outDir, sp.name+".spans.ndjson"))
			if err != nil {
				return nil, err
			}
			res.spansWritten = n
			for _, tp := range p.order {
				res.spansDropped += tp.dropped
			}
		}
	}

	if cells != nil {
		cellVals, err := cells(st, &cfg)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range cellVals {
			L[k] = v
		}
	}

	// Clean close; on the fleet, recover every node from its WAL.
	dirs := make([]string, len(st.nodes))
	for i, nd := range st.nodes {
		dirs[i] = nd.walDir
	}
	if err := st.close(); err != nil {
		res.problem("closing the stack: %v", err)
	}
	if sp.shape == shapeFleetTxn {
		if err := res.recoverAndCount(dirs, records, props.GetInt64("totalcash", 0)); err != nil {
			return nil, err
		}
		L["kvstore.recovery_s"] = res.recoveryS
	}
	return res, nil
}

// resetPeakRSS gives the trial a resident-set high-water mark of its
// own: it hands the previous trial's freed memory back to the OS, then
// asks the kernel to restart VmHWM from the current size. Where the
// kernel refuses, VmHWM stays the process's mark, which still bounds
// the trial's from above.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(rest, "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// readClock merges the threads' benchclock recordings into the result
// and cross-checks them against the client's own TX-* series: every
// transaction seen once, failures equal to the client's aborts, and
// per class as many committed as the client's series count.
func (r *trialResult) readClock(p *probe, runReg *measurement.Registry) (userBytes, dbOps int64) {
	var lat [numClasses][]int64
	var okCount [numClasses]int64
	var clockFailed int64
	for _, tp := range p.order {
		for c := range lat {
			lat[c] = append(lat[c], tp.lat[c]...)
			okCount[c] += tp.okCount[c]
		}
		clockFailed += tp.failed
		userBytes += tp.userBytes
		dbOps += tp.dbOps
		r.delivered += tp.delivered
	}
	r.scans = int64(len(lat[classScan]))
	r.read = summarize(append(lat[classRead], lat[classScan]...))
	r.write = summarize(lat[classWrite])
	if got := int64(r.read.n + r.write.n); got != r.ops {
		r.problem("benchclock saw %d transactions, client completed %d", got, r.ops)
	}
	if clockFailed != r.failed {
		r.problem("benchclock saw %d failed transactions, client counted %d aborts", clockFailed, r.failed)
	}
	for class, series := range [numClasses][]string{
		classRead:  {"TX-READ"},
		classScan:  {"TX-SCAN"},
		classWrite: {"TX-UPDATE", "TX-INSERT", "TX-DELETE", "TX-READMODIFYWRITE"},
	} {
		var want int64
		for _, name := range series {
			want += runReg.Snapshot(name).Returns[db.CodeOK]
		}
		if okCount[class] != want {
			r.problem("benchclock class %d: %d committed, client series %v say %d", class, okCount[class], series, want)
		}
	}
	if n := p.scanViolations.Load(); n > 0 {
		r.problem("%d bad scan results, first: %v", n, p.firstViolation.Load())
	}
	return userBytes, dbOps
}

// transportGuard fails the trial when the run phase took another
// transport than the workload names; negotiation would otherwise hide a
// fallback behind a merely slower number.
func (r *trialResult) transportGuard(sp *spec, before, after counters) {
	for i := range after.nodeFrames {
		frames := after.nodeFrames[i] - before.nodeFrames[i]
		chunks := after.nodeChunks[i] - before.nodeChunks[i]
		switch {
		case sp.fleet() && frames == 0:
			r.problem("node %d served no wire frame: the fleet fell back to HTTP", i)
		case sp.shape == shapeFleetRouter && chunks == 0:
			r.problem("node %d streamed no scan chunk: scans fell back to HTTP", i)
		case sp.shape == shapeSingleHTTP && frames != 0:
			r.problem("node %d served %d wire frames with the wire off", i, frames)
		}
	}
}

// certify closes the history sink and requires the offline checker to
// find the recorded run serializable, with no event dropped.
func (r *trialResult) certify(sink *history.Sink, path string) error {
	if err := sink.Close(); err != nil {
		return err
	}
	events, dropped := sink.Stats()
	recs, _, err := history.LoadFile(path)
	if err != nil {
		return err
	}
	if verdict := history.Check(recs); dropped != 0 || !verdict.Serializable {
		r.problem("history: %d events, %d dropped, serializable=%v", events, dropped, verdict.Serializable)
	}
	return nil
}

func sum(vals []int64) int64 {
	var total int64
	for _, v := range vals {
		total += v
	}
	return total
}

func summarize(lat []int64) latStat {
	s := sortedCopy(lat)
	out := latStat{n: len(s)}
	out.p50, out.p50ok = percentile(s, 0.50)
	out.p99, out.p99ok = percentile(s, 0.99)
	out.p50 /= 1e3
	out.p99 /= 1e3
	return out
}

// spanMetrics turns the traced trial's span sums into per-layer
// numbers. Client-side spans nest strictly, so a layer's self time is
// its span total minus its children's. Server-side engine spans are
// joined in aggregate: no context crosses the socket (nor LocalStore's
// signature), so the trace knows their sum, not their parents.
func (r *trialResult) spanMetrics(p *probe, sp *spec, nthreads int) {
	t := p.totals()
	L := r.layers
	ops := float64(r.ops)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	tx, outer, inner := t.ns[layerTx], t.ns[layerOuter], t.ns[layerInner]
	store, engine := t.ns[layerStore], t.ns[layerEngine]

	// The calls that leave the client for a store: txn.Store calls
	// under txnkv, the binding's own data operations otherwise.
	callNs, callN := store, t.n[layerStore]
	callLayer := layerStore
	if !sp.cew() {
		callLayer = layerInner
		callNs, callN = 0, 0
		for k := 0; k < int(db.OpStart); k++ {
			callNs += t.kns[layerInner][k]
			callN += t.kn[layerInner][k]
		}
	}
	var txnSelf, transportSelf int64
	switch sp.shape {
	case shapeEmbedded:
		// LocalStore lives in internal/txn: its shim is txn time.
		txnSelf = inner - engine
	case shapeFleetTxn:
		txnSelf = inner - store
		transportSelf = callNs - engine
	default:
		transportSelf = callNs - engine
	}
	clientSelf := tx - outer
	// Demarcation no-ops of non-transactional bindings count as chain.
	chainSelf := outer - inner
	if !sp.cew() {
		chainSelf = outer - callNs
	}

	L["client.self_us_per_op"] = us(clientSelf) / ops
	L["db.chain_self_us_per_op"] = us(chainSelf) / ops
	if sp.cew() {
		L["txn.self_us_per_tx"] = us(txnSelf) / ops
		L["txn.store_calls_per_tx"] = float64(t.n[layerStore]) / ops
		L["txn.commit_p50_us"] = p50us(p.writerCommits())
	}
	if sp.shape != shapeEmbedded && callN > 0 {
		L["httpkv.store_call_p50_us"] = p50us(p.durations(callLayer, func(k db.Op) bool { return !k.Demarcation() }))
		L["httpkv.transport_self_us_per_call"] = us(transportSelf) / float64(callN)
		L["httpkv.http_requests_per_op"] = float64(t.n[layerHandler]) / ops
		if n := t.n[layerHandler]; n > 0 {
			L["httpkv.server_busy_us_per_req"] = us(t.ns[layerHandler]) / float64(n)
		}
	}
	L["kvstore.calls_per_op"] = float64(t.n[layerEngine]) / ops
	L["kvstore.busy_us_per_op"] = us(engine) / ops
	L["kvstore.get_p50_us"] = p50us(p.durations(layerEngine, func(k db.Op) bool { return k == db.OpRead }))
	L["kvstore.mutate_p50_us"] = p50us(p.durations(layerEngine, func(k db.Op) bool { return k == db.OpUpdate || k == db.OpDelete }))
	L["kvstore.scan_p50_us"] = p50us(p.durations(layerEngine, func(k db.Op) bool { return k == db.OpScan }))
	for _, st := range p.engines {
		r.engineScanRecs += st.records.Load()
	}
	if r.delivered > 0 {
		L["kvstore.scan_overfetch_ratio"] = float64(r.engineScanRecs) / float64(r.delivered)
	}

	threadNs := float64(nthreads) * r.runS * 1e9
	L["trace.unaccounted_ratio"] = 1 - float64(tx)/threadNs
	for _, s := range []struct {
		name string
		ns   int64
	}{
		{"client (workload code inside the transaction)", clientSelf},
		{"db (middleware chain)", chainSelf},
		{"txn (manager, binding, LocalStore)", txnSelf},
		{"httpkv+kvwire+loopback (transport)", transportSelf},
		{"kvstore (engine calls)", engine},
		{"unaccounted (between transactions)", int64(threadNs) - tx},
	} {
		r.shares = append(r.shares, share{s.name, float64(s.ns) / threadNs})
	}
}

func p50us(durs []int64) float64 {
	v, _ := percentile(sortedCopy(durs), 0.50)
	return v / 1e3
}

// recoverAndCount reopens every node's WAL directory (timed: this is
// recovery_s), then sums the accounts found on disk.
func (r *trialResult) recoverAndCount(dirs []string, records, totalCash int64) error {
	t0 := time.Now()
	stores := make([]*kvstore.Store, 0, len(dirs))
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	for _, dir := range dirs {
		s, err := openStore(dir, nil)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", dir, err)
		}
		stores = append(stores, s)
	}
	r.recoveryS = time.Since(t0).Seconds()
	var accounts, cash int64
	for _, s := range stores {
		err := s.ForEach("usertable", func(key string, rec *kvstore.VersionedRecord) bool {
			accounts++
			n, perr := strconv.ParseInt(string(rec.Fields["field0"]), 10, 64)
			if perr != nil {
				r.problem("account %s on disk has no parsable balance", key)
			}
			cash += n
			return true
		})
		if err != nil {
			return err
		}
	}
	if accounts != records || cash != totalCash {
		r.problem("after recovery: %d accounts holding %d, want %d holding %d", accounts, cash, records, totalCash)
	}
	return nil
}
