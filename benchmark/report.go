package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// hostInfo documents where a suite file was taken, so two files are
// compared knowingly.
type hostInfo struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

// metricRuns holds one metric's value in every run of a suite.
type metricRuns struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the interquartile distance over the median (0 with
	// fewer than two runs): the same-code noise the bound must exceed.
	Spread float64 `json:"spread"`
}

// workloadRuns is one workload's part of a suite file.
type workloadRuns struct {
	Why       string                 `json:"why"`
	Records   int64                  `json:"records"`
	Threads   int                    `json:"threads"`
	Attempted []int64                `json:"attempted"` // operations per untraced run
	Failed    []int64                `json:"failed"`
	EndToEnd  map[string]*metricRuns `json:"end_to_end"`
	PerLayer  map[string]*metricRuns `json:"per_layer"`
}

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Host      hostInfo                 `json:"host"`
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds_per_run"`
	Runs      int                      `json:"runs"`
	Trials    int                      `json:"trials_per_run"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

func readHost() hostInfo {
	h := hostInfo{
		Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runSuite runs every workload in both modes, `runs` times each with
// another seed, every run in a process of its own (as the acceptance
// driver runs them: no run inherits another's heap), and writes the
// suite file.
func runSuite(seed int64, seconds float64, runs int, out string) error {
	if out == "" {
		return errors.New("-suite needs -out <file> (not BENCH_*.json: .gitignore hides that pattern)")
	}
	if runs < 1 {
		return fmt.Errorf("-runs %d", runs)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sf := suiteFile{
		Host: readHost(), Seed: seed, Seconds: seconds, Runs: runs,
		Trials: trialsPerRun, Workloads: map[string]*workloadRuns{},
	}
	for _, sp := range specs {
		wr := &workloadRuns{Why: sp.why, Records: sp.records, Threads: sp.threads,
			EndToEnd: map[string]*metricRuns{}, PerLayer: map[string]*metricRuns{}}
		sf.Workloads[sp.name] = wr
		for r := 0; r < runs; r++ {
			for _, mode := range []int{0, 1} {
				res, err := runChild(self, sp.name, seed+int64(r)*1000, seconds, mode)
				if err != nil {
					return err
				}
				into := wr.EndToEnd
				if mode == 1 {
					into = wr.PerLayer
				} else {
					wr.Attempted = append(wr.Attempted, res.Attempted)
					wr.Failed = append(wr.Failed, res.Failed)
				}
				for name, mv := range res.Metrics {
					if into[name] == nil {
						into[name] = &metricRuns{Unit: mv.Unit}
					}
					into[name].Values = append(into[name].Values, mv.Value)
				}
			}
		}
		for _, group := range []map[string]*metricRuns{wr.EndToEnd, wr.PerLayer} {
			for _, mr := range group {
				mr.Median, mr.Spread = median(mr.Values), spread(mr.Values)
			}
		}
		for _, d := range endToEnd {
			mr := wr.EndToEnd[d.name]
			fmt.Printf("%-14s %-20s median %14.4f %-5s spread %5.1f%% (bound %.0f%%)\n",
				sp.name, d.name, mr.Median, mr.Unit, 100*mr.Spread, 100*d.bound)
		}
	}
	data, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// runChild runs one workload in one mode in a child process and
// decodes the result object on its last output line.
func runChild(self, workload string, seed int64, seconds float64, mode int) (*runResult, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(mode))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return nil, fmt.Errorf("%s (trace %d, seed %d): %w", workload, mode, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: decoding result line: %w", workload, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s (trace %d, seed %d): checks failed", workload, mode, seed)
	}
	return &res, nil
}

// regression reports by what share of a's median b's is worse, for a
// metric whose better direction is given; negative means b is better.
func regression(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// compareSuites prints, per workload and end-to-end metric, both
// medians, how much worse the second is, and the bound; it returns how
// many pairs are worse by more than their bound.
func compareSuites(a, b *suiteFile, w io.Writer) int {
	if a.Host != b.Host {
		fmt.Fprintf(w, "note: hosts differ\n  a: %+v\n  b: %+v\n", a.Host, b.Host)
	}
	exceeded := 0
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a median", "b median", "b worse", "bound")
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from the second file\n", name)
			exceeded++
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-14s %-20s missing\n", name, d.name)
				exceeded++
				continue
			}
			worse := regression(ma.Median, mb.Median, d.better)
			verdict := ""
			if worse > d.bound {
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				name, d.name, ma.Median, mb.Median, 100*worse, 100*d.bound, verdict)
		}
	}
	return exceeded
}

func loadSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

func compareFiles(paths []string, w io.Writer) error {
	if len(paths) != 2 {
		return errors.New("-compare needs two suite files")
	}
	a, err := loadSuite(paths[0])
	if err != nil {
		return err
	}
	b, err := loadSuite(paths[1])
	if err != nil {
		return err
	}
	if n := compareSuites(a, b, w); n > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", n)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
