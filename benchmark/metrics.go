package main

// metricDef declares one reported metric. The table below is the
// single source for what the harness prints; BENCHMARK.json lists the
// same names, units and bounds, and a test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off as the median of five trials on fresh stacks.
//
// read_* is the workload's non-mutating transaction: TX-READ on the
// CEW and workload A, TX-SCAN on workload E. The mutating transaction
// (TX-READMODIFYWRITE, TX-UPDATE, TX-INSERT) is the per-layer
// client.write_*: workload E's inserts are too sparse (~150 a trial)
// and too spread out (p10 60 µs, p90 1.5 ms) for a steady percentile —
// their p50 moved 30 % between runs of the same code — and an
// end-to-end metric must hold on every workload. The 99th percentile
// of the read class is the per-layer client.read_p99_us for a like
// reason: it doubles whatever a slow spell of the host does to the
// median (two slow runs in ten: throughput -22 %, read p99 +45 %), its
// same-code spread reached 15.4 % where no bound may pass 25 %, and a
// third slow run in ten would have refused the benchmark itself.
//
// Bounds are sized to the noise measured on the reference host (two
// back-to-back suites of ten runs, results/same-code-*.json). The host
// is a shared VM with noisy spells minutes long: in the first suite
// same-code spreads (interquartile / median) reached 12.4 % on
// throughput and cpu_ms_per_op, 9.8 % on read_p50_us and 5.1 % on
// peak_rss_mb; in the second, an hour later,
// none passed 8 %, and scan_fleet's medians moved 6-8 % between the two.
// A 10 % bound would make the gate a coin flip; each bound is about
// twice the worst spread seen, up to the 25 % a bound may be.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are diagnostics of single layers: from the traced trial,
// from counters read around the run phase, and from the ladder cells.
// A value of 0 means the layer is not on the workload's path (or the
// cell belongs to another workload's stack).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"client.self_us_per_op", "us", "lower", 0},
		{"client.read_p99_us", "us", "lower", 0},
		{"client.write_p50_us", "us", "lower", 0},
		{"client.write_p99_us", "us", "lower", 0},
		{"client.failed_ops_ratio", "ratio", "lower", 0},
		{"client.anomaly_score", "ratio", "lower", 0},
		{"client.validation_rescans", "count", "lower", 0},
		{"db.chain_self_us_per_op", "us", "lower", 0},
		{"db.ops_per_tx", "count", "lower", 0},
		{"txn.self_us_per_tx", "us", "lower", 0},
		{"txn.store_calls_per_tx", "count", "lower", 0},
		{"txn.commit_p50_us", "us", "lower", 0},
		{"txn.commit_ratio", "ratio", "higher", 0},
		{"txn.conflicts_per_ktx", "count", "lower", 0},
		{"txn.recovered_per_ktx", "count", "lower", 0},
		{"httpkv.store_call_p50_us", "us", "lower", 0},
		{"httpkv.transport_self_us_per_call", "us", "lower", 0},
		{"httpkv.http_requests_per_op", "count", "lower", 0},
		{"httpkv.server_busy_us_per_req", "us", "lower", 0},
		{"httpkv.moved_retries_per_kop", "count", "lower", 0},
		{"kvwire.frames_per_op", "count", "lower", 0},
		{"kvwire.scan_chunks_per_scan", "count", "lower", 0},
		{"kvwire.credit_stalls_per_kscan", "count", "lower", 0},
		{"kvstore.calls_per_op", "count", "lower", 0},
		{"kvstore.busy_us_per_op", "us", "lower", 0},
		{"kvstore.get_p50_us", "us", "lower", 0},
		{"kvstore.mutate_p50_us", "us", "lower", 0},
		{"kvstore.scan_p50_us", "us", "lower", 0},
		{"kvstore.scan_overfetch_ratio", "ratio", "lower", 0},
		{"kvstore.wal_bytes_per_op", "B", "lower", 0},
		{"kvstore.wal_bytes_per_user_byte", "ratio", "lower", 0},
		{"kvstore.recovery_s", "s", "lower", 0},
		{"proc.allocs_per_op", "count", "lower", 0},
		{"proc.alloc_bytes_per_op", "B", "lower", 0},
		{"proc.gc_pause_ms_per_s", "ms/s", "lower", 0},
		{"trace.overhead_ratio", "ratio", "lower", 0},
		{"trace.unaccounted_ratio", "ratio", "lower", 0},
	}
	for _, sh := range []shape{shapeEmbedded, shapeFleetTxn, shapeSingleHTTP, shapeFleetRouter} {
		for _, cell := range ladderNames[sh] {
			defs = append(defs,
				metricDef{"ladder." + cell + "_ns", "ns", "lower", 0},
				metricDef{"ladder." + cell + "_allocs", "count", "lower", 0})
		}
	}
	return defs
}()
