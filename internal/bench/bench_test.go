package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// quickOpts keeps sweep cells tiny so the suite stays fast.
func quickOpts() SweepOptions {
	return SweepOptions{
		Quick:       true,
		RecordCount: 200,
		CellTime:    60 * time.Millisecond,
		Threads:     []int{1, 4},
	}
}

func TestFigure2Shape(t *testing.T) {
	series, err := Figure2(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("Figure2 returned %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Label, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.Throughput <= 0 {
				t.Errorf("%s threads=%d throughput %v", s.Label, pt.Threads, pt.Throughput)
			}
			// Transactional runs must stay anomaly-free.
			if pt.AnomalyScore != 0 {
				t.Errorf("%s threads=%d anomaly score %v on transactional run",
					s.Label, pt.Threads, pt.AnomalyScore)
			}
		}
		// More threads must help at latency-bound scale.
		if s.Points[1].Throughput <= s.Points[0].Throughput {
			t.Errorf("%s: no scaling from %d to %d threads (%.1f → %.1f)",
				s.Label, s.Points[0].Threads, s.Points[1].Threads,
				s.Points[0].Throughput, s.Points[1].Throughput)
		}
	}
	// Higher write ratio costs throughput: 90:10 beats 70:30 at equal
	// threads.
	if series[0].Points[1].Throughput <= series[2].Points[1].Throughput {
		t.Errorf("90:10 (%.1f) should outperform 70:30 (%.1f)",
			series[0].Points[1].Throughput, series[2].Points[1].Throughput)
	}
}

func TestFigure3Shape(t *testing.T) {
	// Figure 3's ratio needs enough operations per cell to be stable;
	// at 1 thread a cell completes ~4 ops per 25ms, so use larger
	// cells than the other quick sweeps.
	o := quickOpts()
	o.CellTime = 400 * time.Millisecond
	o.Threads = []int{1, 4}
	series, err := Figure3(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("Figure3 returned %d series", len(series))
	}
	nontx, tx := series[0], series[1]
	for i := range nontx.Points {
		n, x := nontx.Points[i], tx.Points[i]
		if n.Throughput <= 0 || x.Throughput <= 0 {
			t.Fatalf("dead cell at threads=%d", n.Threads)
		}
		// The paper's claim: transactions cost ~30-40% of throughput.
		// Allow a generous band for the quick sweep: tx throughput at
		// least a quarter of non-tx, and strictly below it.
		ratio := x.Throughput / n.Throughput
		t.Logf("threads=%d: tx / non-tx throughput = %.2f", n.Threads, ratio)
		if ratio >= 1.0 {
			t.Errorf("threads=%d: transactions were free (ratio %.2f)", n.Threads, ratio)
		}
		if ratio < 0.25 {
			t.Errorf("threads=%d: overhead implausibly high (ratio %.2f)", n.Threads, ratio)
		}
	}
}

func TestFigure45Shape(t *testing.T) {
	o := quickOpts()
	o.Threads = []int{1, 8}
	fig4, fig5, err := Figure45(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Points) != 2 || len(fig5.Points) != 2 {
		t.Fatalf("points: %d/%d", len(fig4.Points), len(fig5.Points))
	}
	// Paper: "no anomalies are present at all with a single thread".
	if fig4.Points[0].AnomalyScore != 0 {
		t.Errorf("single-thread anomaly score = %v, want 0", fig4.Points[0].AnomalyScore)
	}
	// Throughput grows with threads on the local store.
	if fig5.Points[1].Throughput <= fig5.Points[0].Throughput {
		t.Errorf("no local-store scaling: %.0f → %.0f",
			fig5.Points[0].Throughput, fig5.Points[1].Throughput)
	}
	t.Logf("fig4: 1 thread score=%g, 8 threads score=%g",
		fig4.Points[0].AnomalyScore, fig4.Points[1].AnomalyScore)
}

func TestTier5Overhead(t *testing.T) {
	rows, err := Tier5Overhead(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no overhead rows")
	}
	byName := map[string]OverheadRow{}
	for _, r := range rows {
		byName[r.Series] = r
	}
	// START/COMMIT are ~free without transactions and costly with.
	if r, ok := byName["COMMIT"]; ok {
		if r.NonTxCount == 0 || r.TxCount == 0 {
			t.Errorf("COMMIT row incomplete: %+v", r)
		}
		if r.TxUS <= r.NonTxUS {
			t.Errorf("transactional COMMIT (%.1fus) should cost more than no-op (%.1fus)", r.TxUS, r.NonTxUS)
		}
	} else {
		t.Error("no COMMIT row")
	}
	if _, ok := byName["READ"]; !ok {
		t.Error("no READ row")
	}
}

func TestPrintHelpers(t *testing.T) {
	series := []Series{{
		Label:  "a",
		Points: []Point{{Threads: 1, Throughput: 10.5, AnomalyScore: 0.001}},
	}}
	var buf bytes.Buffer
	PrintSeries(&buf, "Title", "ops/sec", Tput, series)
	out := buf.String()
	for _, want := range []string{"Title", "threads", "a", "10.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	PrintSeries(&buf, "Empty", "x", Score, nil)
	if !strings.Contains(buf.String(), "Empty") {
		t.Error("empty table has no title")
	}
	buf.Reset()
	PrintOverhead(&buf, []OverheadRow{{Series: "READ", NonTxUS: 1, TxUS: 2}})
	if !strings.Contains(buf.String(), "READ") {
		t.Error("overhead table missing row")
	}
	if got := Score(Point{AnomalyScore: 0.00123}); got != "0.00123" {
		t.Errorf("Score = %q", got)
	}
}

func TestOracleSweepShape(t *testing.T) {
	o := quickOpts()
	o.CellTime = 300 * time.Millisecond
	o.Threads = nil
	series, err := OracleSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("OracleSweep returned %d series", len(series))
	}
	perc, cherry := series[0], series[1]
	if len(perc.Points) < 2 {
		t.Fatalf("points: %d", len(perc.Points))
	}
	// Percolator throughput must collapse as the oracle moves away...
	last := len(perc.Points) - 1
	if perc.Points[last].Throughput >= perc.Points[0].Throughput*0.7 {
		t.Errorf("oracle RTT did not hurt percolator: %.1f → %.1f",
			perc.Points[0].Throughput, perc.Points[last].Throughput)
	}
	// ...while the client-coordinated curve stays roughly flat.
	ratio := cherry.Points[last].Throughput / cherry.Points[0].Throughput
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("client-coordinated curve not flat: ratio %.2f", ratio)
	}
	// Both stay anomaly-free throughout.
	for _, s := range series {
		for _, pt := range s.Points {
			if pt.AnomalyScore != 0 {
				t.Errorf("%s rtt=%dms anomaly score %v", s.Label, pt.Threads, pt.AnomalyScore)
			}
		}
	}
	var buf bytes.Buffer
	PrintOracleSweep(&buf, series)
	if !strings.Contains(buf.String(), "oracle RTT") {
		t.Error("PrintOracleSweep output malformed")
	}
}

func TestStalenessProbe(t *testing.T) {
	lag := 10 * time.Millisecond
	points, err := StalenessProbe(context.Background(), lag,
		[]time.Duration{0, 30 * time.Millisecond}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %v", points)
	}
	// Reading immediately after the write must be mostly stale; well
	// past the lag, mostly fresh.
	if points[0].StaleFraction < 0.5 {
		t.Errorf("immediate reads mostly fresh (%.2f) despite %v lag", points[0].StaleFraction, lag)
	}
	if points[1].StaleFraction > 0.3 {
		t.Errorf("reads after 3× lag still stale (%.2f)", points[1].StaleFraction)
	}
	var buf bytes.Buffer
	PrintStaleness(&buf, lag, points)
	if !strings.Contains(buf.String(), "P(stale read)") {
		t.Error("PrintStaleness output malformed")
	}
}

func TestMultiHostShape(t *testing.T) {
	o := quickOpts()
	o.CellTime = 400 * time.Millisecond
	points, err := MultiHost(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %v", points)
	}
	// Aggregate throughput must be in the same ballpark regardless of
	// the instance split: the container cap governs.
	ratio := points[1].TotalThroughput / points[0].TotalThroughput
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("split changed capped throughput: %v (ratio %.2f)", points, ratio)
	}
	var buf bytes.Buffer
	PrintMultiHost(&buf, points)
	if !strings.Contains(buf.String(), "instances") {
		t.Error("PrintMultiHost output malformed")
	}
}
