# Tier-1 verification entry point (see ROADMAP.md): `make check` is
# what CI and contributors run before merging.

GO ?= go

.PHONY: check fmt one-http-client vet build test test-race test-twice test-allocs fuzz-smoke bench bench-quick bench-cluster bench-smoke clean

# The full tier-1 gate: gofmt, vet, build everything, the race-enabled short
# test run, every short test twice in one process, the allocation pins
# without the race detector, then a short coverage-guided fuzz of the binary frame
# codec (hostile bytes off the network must never panic the decoder),
# of the REST record codec (it must decode every body exactly as
# encoding/json does, and what it writes must read back), of the REST
# reply reader (whatever it accepts, net/http reads the same; an
# over-long head line or body is always refused), of the
# history NDJSON decoder (hostile history files must never panic the
# offline checker), of the WAL record decoder (a damaged log must
# never panic recovery, and what it accepts re-encodes) and of the
# engine's copy-on-write B-tree (it must match a map, and every root
# it kept along the way must still read what it held). The record
# codec's corpus holds a 100 000-deep body and the reply reader's a
# 4 KiB head line, and minimizing each new input grown from them would
# take the whole budget, so minimization is capped.
check: fmt one-http-client vet build test-race test-twice test-allocs fuzz-smoke

# gofmt must list no file of the root module or of benchmark/.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The product has one HTTP client, httpkv's REST exchange (rest.go): no
# non-test file of internal/ or cmd/ may name http.Client,
# http.Transport or http.NewRequest. The one exception is the ignored hc
# parameter of httpkv's NewClient and NewRouter, kept while
# benchmark/stack.go passes it.
one-http-client:
	@out="$$(grep -rnE --include='*.go' --exclude='*_test.go' 'http\.(Client|Transport|NewRequest)' internal cmd \
		| grep -vE '^internal/httpkv/(client|router)\.go:[0-9]+:func New(Client|Router)\(.*, hc \*http\.Client[,)]')"; \
	if [ -n "$$out" ]; then echo "a non-test file of internal/ or cmd/ names a net/http client:"; echo "$$out"; exit 1; fi

fuzz-smoke:
	$(GO) test -run xx -fuzz FuzzFrameCodec -fuzztime 10s ./internal/kvwire/
	$(GO) test -run xx -fuzz FuzzRecordCodec -fuzztime 10s -fuzzminimizetime 100x ./internal/httpkv/
	$(GO) test -run xx -fuzz FuzzRESTResponse -fuzztime 10s -fuzzminimizetime 100x ./internal/httpkv/
	$(GO) test -run xx -fuzz FuzzHistoryDecoder -fuzztime 10s ./internal/history/
	$(GO) test -run xx -fuzz FuzzDecodeWALRecord -fuzztime 10s ./internal/kvstore/
	$(GO) test -run xx -fuzz FuzzBTreeOperations -fuzztime 10s ./internal/kvstore/

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Plain test run (the ROADMAP tier-1 command).
test:
	$(GO) test ./...

# Short mode keeps the race run quick; the race detector covers the
# sharded measurement path and the per-thread middleware chains. It is
# also where the transaction schedule is guarded: internal/txn's
# TestCommitScheduleStoreCalls counts the store calls a commit waits
# for, its finish's included (exact, so no benchmark is needed to
# notice an extra round trip), next to the read-set trap tests and
# kvwire's frame segmentation tests; and where the finish's registry
# runs under the detector: TestFinishAccounting (eight committers on
# one manager, then an empty _tsr and the goroutine count back at its
# baseline), TestSameThreadReadsItsCommit (a client that reads its own
# commit, call for call), TestReaderWaitsForItsManagersFinish (a
# reader waiting on another goroutine's finish),
# TestFinishOutlivesItsStore, TestLocalStoreFinishesOnCommitter (four
# committers over one in-process store, raw and behind a decorator
# that forwards nothing, then no debris) and internal/httpkv's
# TestFleetCommitIsFinishedWhenItReturns (the same over a two-node
# in-process fleet, checked after every commit);
# internal/httpkv's TestRouterScanResultsCrossGoroutines reads one
# scan's results on two goroutines while the router scans again. kvwire's
# TestCloseFailsExecInFlight runs ten more times: it shuts a server down
# while a frame is in flight, the schedule under which a connection
# used to join the drain count while Shutdown waited on it.
test-race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 -run TestCloseFailsExecInFlight ./internal/kvwire/

# A test must pass when it runs again in the same process: one that
# leaves process-wide state behind (a registration, a global) fails its
# second iteration here.
test-twice:
	$(GO) test -count=2 -short ./...

# Allocation counts mean something only without the race detector (the
# pins it would upset skip themselves under it), so every test named
# *Alloc* runs again here without it: the codecs' and the engine's
# zero-allocation paths, the metered middleware's zero allocations per
# call, the one-key read-only transaction's count, a CEW transfer's
# over an in-process store (its finish on the committer), a one-key
# insert's (its one write the whole commit), and what a scan
# costs per record (a router scan ≤ 2 allocations a record, an embedded
# kvstore scan and the integrity check of a scanned record none).
test-allocs:
	$(GO) test -count=1 -run Alloc ./...

# Reduced-cell figure benchmarks plus the measurement hot-path bench.
bench:
	$(GO) test -bench . -benchtime 1x ./...
	$(GO) test -bench BenchmarkSeriesMeasureParallel -cpu 1,8,32 ./internal/measurement/

# The acceptance benchmarks, machine-readable: CI uploads
# BENCH_read.json (the lock-free snapshot read path vs the emulated locked+clone baseline),
# BENCH_mvcc.json (as-of scan throughput under concurrent writers
# plus the head-read path, whose 0-alloc budget must not regress now
# that records carry version chains), BENCH_wire.json (16-op request
# frames at 32 client threads) and BENCH_scan.json (1000-record paged
# scans and the framed slot migration) so all regressions are
# visible per run. BENCH_history.json carries the history-capture
# overhead cells (CaptureOn vs CaptureOff; budget ≤5%). BENCH_codec.json
# carries the field-section micro-cells kept beside the code: response
# and page decode as a connection's read loop runs them, page encode
# from engine records, and Store.Scan / Put on the benchmark's record
# (parent's numbers: EXPERIMENTS.md "Encode once").
bench-quick:
	$(GO) test -run xx -bench 'BenchmarkReadHeavy|BenchmarkGetScanParallel' -benchtime 300ms -cpu 4 -json ./internal/kvstore/ | tee BENCH_read.json
	$(GO) test -run xx -bench BenchmarkAsOfScanUnderWrites -benchtime 300ms -cpu 4 -json ./internal/kvstore/ | tee BENCH_mvcc.json
	$(GO) test -run xx -bench BenchmarkStoreParallel -benchtime 300ms -json . | tee -a BENCH_mvcc.json
	$(GO) test -run xx -bench BenchmarkWireTransport -benchtime 1s -json . | tee BENCH_wire.json
	$(GO) test -run xx -bench BenchmarkHistoryCaptureOverhead -benchtime 500ms -cpu 4 -json . | tee BENCH_history.json
	$(GO) test -run xx -bench BenchmarkWireScan -benchtime 1s -json . | tee BENCH_scan.json
	$(GO) test -run xx -bench 'BenchmarkDecodeResponse|BenchmarkDecodePage|BenchmarkEncodePage' -benchtime 1s -json ./internal/kvwire/ | tee BENCH_codec.json
	$(GO) test -run xx -bench 'BenchmarkStoreScan$$|BenchmarkStorePutRecord' -benchtime 1s -json ./internal/kvstore/ | tee -a BENCH_codec.json

# Cluster scaling acceptance bench: identical capacity-bound nodes,
# read-heavy load routed by the shard map, 1 node vs 3. The 3-node
# cell must clear 2x; CI uploads BENCH_cluster.json per run.
bench-cluster:
	$(GO) test -run xx -bench BenchmarkClusterScaling -benchtime 3x -json . | tee BENCH_cluster.json

# The repository's benchmark (BENCHMARK.json) is a nested module that
# root `go test ./...` does not reach: vet and test the harness, then
# run every workload in both modes with every check at 1/50 size.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -smoke

clean:
	$(GO) clean ./...
