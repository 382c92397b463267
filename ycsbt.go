// Package ycsbt is a Go reproduction of "YCSB+T: Benchmarking
// Web-scale Transactional Databases" (Dey, Fekete, Nambiar, Röhm —
// ICDE 2014 workshops).
//
// The repository contains:
//
//   - internal/client, internal/workload, internal/measurement,
//     internal/generator, internal/properties — the YCSB+T benchmark
//     framework: a YCSB-compatible workload executor extended with
//     transaction wrapping (Tier 5, transactional overhead) and a
//     post-run validation stage with anomaly scoring (Tier 6,
//     consistency), plus the Closed Economy Workload (CEW);
//   - internal/kvstore, internal/httpkv — an embedded versioned
//     B-tree key-value engine with a write-ahead log, and its HTTP
//     front end (the paper's WiredTiger-over-HTTP analog);
//   - internal/cloudsim — a simulated cloud store container
//     (WAS/GCS-like: request latency, rate ceiling, connection-pool
//     contention, ETag conditional puts);
//   - internal/txn — a client-coordinated multi-item transaction
//     library in the style of the authors' own system (Percolator /
//     ReTSO family, no central coordinator);
//   - internal/bench — sweeps that regenerate every figure of the
//     paper's evaluation (run `go run ./cmd/experiments`);
//   - internal/core — the load → run → validate → report pipeline
//     (Execute) that cmd/ycsbt wraps;
//   - cmd/ycsbt, cmd/kvserver, cmd/experiments — the benchmark
//     client, the HTTP store server, and the figure harness.
//
// README.md's Examples section lists ycsbt command lines that CI runs.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package ycsbt
