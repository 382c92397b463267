// Command benchmark measures the whole stack: four workloads, each on
// a stack booted in this process over real loopback TCP from the
// constructors cmd/kvserver uses, driven by the real client (load →
// run → Tier 6 validate). See README.md in this directory.
//
//	benchmark --workload cew_fleet --seed 42 --seconds 12 --trace 0
//	    five trials on fresh stacks; prints every end-to-end metric,
//	    then one JSON object on the last line
//	benchmark --workload cew_fleet --seed 42 --seconds 12 --trace 1
//	    one untraced and one traced trial plus the ladder cells; prints
//	    every per-layer metric the same way
//	benchmark -suite -seed 42 -runs 10 -out results/a.json
//	    every workload, both modes, each in a process of its own
//	benchmark -compare a.json b.json
//	    exit 1 when an end-to-end median differs beyond its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(specNames(), ", "))
		seed         = flag.Int64("seed", 42, "workload seed; trial i uses seed+i")
		seconds      = flag.Float64("seconds", 12, "measured seconds per run, split over its trials")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced trial and the ladder")
		smoke        = flag.Bool("smoke", false, "1/50 sizes: every workload, both modes, every check, in seconds")
		suite        = flag.Bool("suite", false, "run every workload in both modes, one process each, and write -out")
		runs         = flag.Int("runs", 1, "with -suite: runs per workload and mode, each with another seed")
		out          = flag.String("out", "", "with -suite: the JSON file to write")
		compare      = flag.Bool("compare", false, "compare two -suite files given as arguments")
		workDir      = flag.String("workdir", ".bench_build/run", "directory for WALs of running trials (emptied after each)")
		outDir       = flag.String("outdir", "benchmark/out", "directory for span and history dumps")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *suite:
		err = runSuite(*seed, *seconds, *runs, *out)
	case *smoke:
		err = runSmoke(*seed, *workDir, *outDir)
	default:
		err = runOne(*workloadName, *seed, *seconds, *trace == 1, 1, *workDir, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// trialsPerRun is how many fresh-stack trials one untraced run takes
// the median of; a reused server drifts as its state grows. Five short
// trials gave steadier medians than three longer ones.
const trialsPerRun = 5

// runOne is one run of one workload in one mode. It prints every
// metric by name and unit, then the result object, and fails when a
// correctness or transport-path check did.
func runOne(name string, seed int64, seconds float64, traced bool, scale int64, workDir, outDir string) error {
	sp := specByName(name)
	if sp == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(specNames(), ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %v", seconds)
	}
	for _, dir := range []string{workDir, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	cfg := trialCfg{
		sp: sp, seed: seed, threads: sp.threads, scale: scale, workDir: workDir, outDir: outDir,
		runFor: time.Duration(seconds / trialsPerRun * float64(time.Second)),
	}
	var res runResult
	var problems []string
	var err error
	if traced {
		res, problems, err = runTraced(cfg)
	} else {
		res, problems, err = runUntraced(cfg)
	}
	if err != nil {
		return err
	}
	for _, p := range problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d checks failed", name, len(problems))
	}
	return nil
}

// runUntraced takes five trials on fresh stacks, trial i with seed+i,
// and reports the median of each end-to-end metric.
func runUntraced(cfg trialCfg) (runResult, []string, error) {
	res := runResult{Metrics: map[string]metricValue{}}
	vals := map[string][]float64{}
	var problems []string
	fmt.Printf("# %s: %d untraced trials of %.2fs, %d closed-loop threads, seed %d\n",
		cfg.sp.name, trialsPerRun, cfg.runFor.Seconds(), cfg.threads, cfg.seed)
	if err := warmUp(cfg); err != nil {
		return res, nil, err
	}
	for i := 0; i < trialsPerRun; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		tr, err := runTrial(c, nil)
		if err != nil {
			return res, nil, fmt.Errorf("trial %d: %w", i, err)
		}
		res.Attempted += tr.ops
		res.Failed += tr.failed
		for _, p := range tr.problems {
			problems = append(problems, fmt.Sprintf("trial %d: %s", i, p))
		}
		for k, v := range map[string]float64{
			"throughput_ops_s": tr.throughput,
			"read_p50_us":      tr.read.p50,
			"cpu_ms_per_op":    tr.cpuMsPerOp,
			"peak_rss_mb":      tr.peakRSSMiB,
			"setup_s":          tr.setupS,
		} {
			vals[k] = append(vals[k], v)
		}
		fmt.Printf("# trial %d: %d ops in %.3fs, %d failed; read n=%d p99 %.1fus (>=10 beyond: %v); write n=%d p50 %.1fus p99 %.1fus (>=10 beyond: %v)\n",
			i, tr.ops, tr.runS, tr.failed, tr.read.n, tr.read.p99, tr.read.p99ok, tr.write.n, tr.write.p50, tr.write.p99, tr.write.p99ok)
	}
	for _, d := range endToEnd {
		v := vals[d.name]
		lo, hi := minMax(v)
		m := median(v)
		res.Metrics[d.name] = metricValue{m, d.unit}
		fmt.Printf("%-20s %14.4f %-5s (min %.4f, max %.4f; %s is better, bound %.0f%%)\n",
			d.name, m, d.unit, lo, hi, d.better, d.bound*100)
	}
	fmt.Printf("%-20s %14.6f ratio (%d of %d)\n", "failed_ops_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, problems, nil
}

// warmUp runs a short discarded trial, so that the first measured one
// does not pay for a cold process: a heap still growing towards its
// working size, unfaulted pages, first use of the loopback.
func warmUp(cfg trialCfg) error {
	cfg.runFor /= 4
	if _, err := runTrial(cfg, nil); err != nil {
		return fmt.Errorf("warm-up trial: %w", err)
	}
	return nil
}

// runTraced takes one traced trial and one untraced reference trial of
// the same seed (with the ladder cells after it, on a stack free of
// decorators, and last, so their disk writes disturb no trial), and
// reports every per-layer metric.
func runTraced(cfg trialCfg) (runResult, []string, error) {
	res := runResult{Metrics: map[string]metricValue{}}
	fmt.Printf("# %s: traced trial, then untraced reference trial + ladder, %.2fs each, seed %d\n",
		cfg.sp.name, cfg.runFor.Seconds(), cfg.seed)
	if err := warmUp(cfg); err != nil {
		return res, nil, err
	}
	tc := cfg
	tc.traced = true
	tc.certify = cfg.sp.shape == shapeFleetTxn
	tr, err := runTrial(tc, nil)
	if err != nil {
		return res, nil, fmt.Errorf("traced trial: %w", err)
	}
	ref, err := runTrial(cfg, runLadder)
	if err != nil {
		return res, nil, fmt.Errorf("reference trial: %w", err)
	}
	var problems []string
	for _, p := range ref.problems {
		problems = append(problems, "reference trial: "+p)
	}
	for _, p := range tr.problems {
		problems = append(problems, "traced trial: "+p)
	}
	res.Attempted = ref.ops + tr.ops
	res.Failed = ref.failed + tr.failed

	L := tr.layers
	for k, v := range ref.layers {
		if strings.HasPrefix(k, "ladder.") {
			L[k] = v
		}
	}
	for _, cell := range ladderNames[cfg.sp.shape] {
		if L["ladder."+cell+"_ns"] <= 0 {
			problems = append(problems, "ladder cell "+cell+" reported no time")
		}
	}
	L["trace.overhead_ratio"] = ref.throughput/tr.throughput - 1
	L["client.read_p99_us"] = ref.read.p99
	L["client.write_p50_us"], L["client.write_p99_us"] = ref.write.p50, ref.write.p99
	L["client.validation_rescans"] += ref.layers["client.validation_rescans"]
	if u := L["trace.unaccounted_ratio"]; u > 0.10 {
		problems = append(problems, fmt.Sprintf("trace.unaccounted_ratio %.3f > 0.10: a seam is missing", u))
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{L[d.name], d.unit}
		fmt.Printf("%-36s %16.4f %s\n", d.name, L[d.name], d.unit)
	}
	fmt.Printf("# traced trial: %d ops in %.3fs (%.0f ops/s; untraced reference %.0f ops/s)\n", tr.ops, tr.runS, tr.throughput, ref.throughput)
	fmt.Printf("# self time by layer, as a share of client thread time (%d threads x %.3fs):\n", cfg.threads, tr.runS)
	for _, s := range tr.shares {
		fmt.Printf("#   %-48s %6.1f%%\n", s.layer, 100*s.frac)
	}
	fmt.Printf("# server-side engine and handler spans carry no transaction id (no context crosses the socket); they join the client side in aggregate only\n")
	fmt.Printf("# scan over-fetch base counts: engine scans returned %d records, the workload was delivered %d in %d scans\n",
		tr.engineScanRecs, tr.delivered, tr.scans)
	fmt.Printf("# %d sampled spans (1 transaction in %d; %d more did not fit the buffers) written to %s\n",
		tr.spansWritten, cfg.sp.keepEvery, tr.spansDropped, filepath.Join(cfg.outDir, cfg.sp.name+".spans.ndjson"))
	return res, problems, nil
}

// runSmoke runs every workload in both modes at 1/50 size with every
// check on, so the harness itself can be tested in seconds.
func runSmoke(seed int64, workDir, outDir string) error {
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			if err := runOne(sp.name, seed, 0.6, traced, 50, workDir, outDir); err != nil {
				return err
			}
		}
	}
	return nil
}
