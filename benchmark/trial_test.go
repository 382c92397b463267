package main

import (
	"testing"
	"time"
)

// Decorators must not change the path taken: for a fixed seed and one
// client thread, the traced stack (span wrappers around the txn.Store,
// every engine and every handler) starts exactly as many engine
// operations as the bare one. The count comes from the engine's own
// kvstore_ops_total series, below every decorator.
func TestTracedAndUntracedStacksMakeTheSameEngineCalls(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			var calls [2]int64
			for i, traced := range []bool{false, true} {
				dir := t.TempDir()
				res, err := runTrial(trialCfg{
					sp: sp, seed: 7, ops: 600, threads: 1, traced: traced,
					scale: 10, workDir: dir, outDir: dir,
				}, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range res.problems {
					t.Errorf("traced=%v: %s", traced, p)
				}
				if res.ops != 600 {
					t.Fatalf("traced=%v: ran %d operations, want 600", traced, res.ops)
				}
				calls[i] = res.engineOps
			}
			if calls[0] == 0 || calls[0] != calls[1] {
				t.Fatalf("engine operations: untraced %d, traced %d", calls[0], calls[1])
			}
		})
	}
}

// A traced trial must account for the client threads' time: its
// sums telescope, every layer on the workload's path shows up, and
// layers off the path stay at zero.
func TestTracedTrialDecomposesTheRightLayers(t *testing.T) {
	dir := t.TempDir()
	res, err := runTrial(trialCfg{
		sp: specByName("cew_fleet"), seed: 7, runFor: 300 * time.Millisecond, threads: 1,
		traced: true, certify: true, scale: 10, workDir: dir, outDir: dir,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Error(p)
	}
	L := res.layers
	for _, name := range []string{
		"client.self_us_per_op", "db.chain_self_us_per_op", "txn.self_us_per_tx", "txn.store_calls_per_tx",
		"httpkv.transport_self_us_per_call", "kvwire.frames_per_op", "kvstore.busy_us_per_op", "kvstore.wal_bytes_per_op",
	} {
		if L[name] <= 0 {
			t.Errorf("%s = %v on cew_fleet, want > 0", name, L[name])
		}
	}
	if u := L["trace.unaccounted_ratio"]; u < 0 || u > 0.10 {
		t.Errorf("trace.unaccounted_ratio = %v, want within [0, 0.10]", u)
	}
	var sum float64
	for _, s := range res.shares {
		sum += s.frac
	}
	if !near(sum, 1) && (sum < 0.999 || sum > 1.001) {
		t.Errorf("self-time shares sum to %v, want 1", sum)
	}
	if res.recoveryS <= 0 {
		t.Error("cew_fleet reported no recovery time")
	}
	if res.spansWritten == 0 {
		t.Error("no span written")
	}
}

// -smoke: every workload, both modes, every check, at 1/50 size.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 40 in-process servers")
	}
	dir := t.TempDir()
	if err := runSmoke(7, dir, dir); err != nil {
		t.Fatal(err)
	}
}
