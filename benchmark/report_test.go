package main

import (
	"bytes"
	"strings"
	"testing"
)

// suiteWith builds a one-workload suite whose end-to-end medians are
// the base values scaled per metric.
func suiteWith(scale map[string]float64) *suiteFile {
	base := map[string]float64{
		"throughput_ops_s": 10000, "read_p50_us": 100,
		"cpu_ms_per_op": 0.05, "peak_rss_mb": 120, "setup_s": 1,
	}
	wr := &workloadRuns{EndToEnd: map[string]*metricRuns{}}
	for _, d := range endToEnd {
		v := base[d.name]
		if s, ok := scale[d.name]; ok {
			v *= s
		}
		wr.EndToEnd[d.name] = &metricRuns{Unit: d.unit, Values: []float64{v}, Median: v}
	}
	return &suiteFile{Workloads: map[string]*workloadRuns{"cew_fleet": wr}}
}

func TestCompareHonoursBoundAndDirection(t *testing.T) {
	a := suiteWith(nil)
	for _, c := range []struct {
		name  string
		scale map[string]float64
		want  int
	}{
		{"identical", nil, 0},
		{"throughput 20% lower is inside its 25% bound", map[string]float64{"throughput_ops_s": 0.8}, 0},
		{"throughput 30% lower exceeds it", map[string]float64{"throughput_ops_s": 0.7}, 1},
		{"throughput 50% higher is an improvement", map[string]float64{"throughput_ops_s": 1.5}, 0},
		{"peak RSS 25% higher exceeds 20%", map[string]float64{"peak_rss_mb": 1.25}, 1},
		{"p50 50% lower is an improvement", map[string]float64{"read_p50_us": 0.5}, 0},
		{"p50 20% higher is inside 25%", map[string]float64{"read_p50_us": 1.2}, 0},
		{"p50 30% higher exceeds 25%", map[string]float64{"read_p50_us": 1.3}, 1},
		{"two at once", map[string]float64{"cpu_ms_per_op": 1.27, "setup_s": 1.3}, 2},
	} {
		var out bytes.Buffer
		if got := compareSuites(a, suiteWith(c.scale), &out); got != c.want {
			t.Errorf("%s: %d metrics over their bound, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

func TestCompareFlagsMissingWorkloadAndPrintsEveryMetric(t *testing.T) {
	a, b := suiteWith(nil), suiteWith(nil)
	var out bytes.Buffer
	compareSuites(a, b, &out)
	for _, d := range endToEnd {
		if !strings.Contains(out.String(), d.name) {
			t.Errorf("comparison does not print %s", d.name)
		}
	}
	delete(b.Workloads, "cew_fleet")
	if got := compareSuites(a, b, &out); got != 1 {
		t.Errorf("missing workload counted %d times, want 1", got)
	}
}

func TestRegressionSign(t *testing.T) {
	if r := regression(100, 110, "lower"); !near(r, 0.10) {
		t.Errorf("latency 100→110 = %v worse, want 0.10", r)
	}
	if r := regression(100, 90, "higher"); !near(r, 0.10) {
		t.Errorf("throughput 100→90 = %v worse, want 0.10", r)
	}
	if r := regression(100, 110, "higher"); !near(r, -0.10) {
		t.Errorf("throughput 100→110 = %v worse, want -0.10", r)
	}
}
