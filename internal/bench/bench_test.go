package bench

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"ycsbt/internal/db"
	"ycsbt/internal/httpkv"
	"ycsbt/internal/properties"
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

// line builds a series with one point per throughput, threads 1, 2, ...
func line(label string, tputs ...float64) Series {
	s := Series{Label: label}
	for i, tp := range tputs {
		s.Points = append(s.Points, Point{Threads: i + 1, Throughput: tp})
	}
	return s
}

// TestShapeChecksRejectBrokenShapes feeds each check one series that
// holds its figure's shape and one that breaks it.
func TestShapeChecksRejectBrokenShapes(t *testing.T) {
	anomalous := line("90:10", 10, 20)
	anomalous.Points[1].AnomalyScore = 0.01
	oneThreadAnomaly := line("score", 10, 20)
	oneThreadAnomaly.Points[0].AnomalyScore = 0.01
	for _, c := range []struct {
		name      string
		good, bad error
	}{
		{"figure 2 scaling",
			CheckFigure2([]Series{line("90:10", 10, 30), line("80:20", 10, 25), line("70:30", 10, 20)}),
			CheckFigure2([]Series{line("90:10", 10, 30), line("80:20", 10, 10), line("70:30", 10, 20)})},
		{"figure 2 mix order",
			nil,
			CheckFigure2([]Series{line("90:10", 10, 15), line("80:20", 10, 25), line("70:30", 10, 20)})},
		{"figure 2 anomalies",
			nil,
			CheckFigure2([]Series{anomalous, line("80:20", 10, 15), line("70:30", 10, 12)})},
		{"figure 3",
			CheckFigure3([]Series{line("non-tx", 10, 40), line("tx", 7, 25)}),
			CheckFigure3([]Series{line("non-tx", 10, 40), line("tx", 7, 40)})},
		{"figure 3 overhead under 10% at the first cell",
			nil,
			CheckFigure3([]Series{line("non-tx", 10, 40), line("tx", 9.5, 25)})},
		{"figure 3 overhead under 10% at the last cell",
			nil,
			CheckFigure3([]Series{line("non-tx", 10, 40), line("tx", 7, 38)})},
		{"tier 5",
			CheckTier5([]OverheadRow{{Series: "READ"}, {Series: "TX-READMODIFYWRITE", NonTxUS: 27, TxUS: 46, NonTxCount: 9, TxCount: 9}}),
			CheckTier5([]OverheadRow{{Series: "TX-READMODIFYWRITE", NonTxUS: 27.3, TxUS: 27.2, NonTxCount: 9, TxCount: 9}})},
		{"tier 5 without the row",
			nil,
			CheckTier5([]OverheadRow{{Series: "READ", NonTxUS: 1, TxUS: 2, NonTxCount: 9, TxCount: 9}})},
		{"figures 4/5",
			CheckFigure45(line("score", 10, 20), line("tput", 10, 20)),
			CheckFigure45(oneThreadAnomaly, line("tput", 10, 20))},
		{"oracle sweep",
			CheckOracleSweep([]Series{line("perc", 100, 20), line("cc", 100, 90)}),
			CheckOracleSweep([]Series{line("perc", 100, 90), line("cc", 100, 90)})},
		{"multi-host",
			CheckMultiHost([]MultiHostPoint{{TotalThroughput: 100}, {TotalThroughput: 120}}),
			CheckMultiHost([]MultiHostPoint{{TotalThroughput: 100}, {TotalThroughput: 300}})},
	} {
		if c.good != nil {
			t.Errorf("%s: good shape rejected: %v", c.name, c.good)
		}
		if c.bad == nil {
			t.Errorf("%s: broken shape accepted", c.name)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	series, err := Figure2(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFigure2(series); err != nil {
		t.Error(err)
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
	for i, n := range series[0].Points {
		t.Logf("%d threads: tx/non-tx throughput %.2f", n.Threads, series[1].Points[i].Throughput/n.Throughput)
	}
	if err := CheckFigure3(series); err != nil {
		t.Error(err)
	}
}

func TestFigure45Shape(t *testing.T) {
	o := quickOpts()
	o.Threads = []int{1, 8}
	fig4, fig5, err := Figure45(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFigure45(fig4, fig5); err != nil {
		t.Error(err)
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
	if err := CheckTier5(rows); err != nil {
		t.Error(err)
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
	if err := CheckOracleSweep(series); err != nil {
		t.Error(err)
	}
	var buf bytes.Buffer
	PrintOracleSweep(&buf, series)
	if !strings.Contains(buf.String(), "oracle RTT") {
		t.Error("PrintOracleSweep output malformed")
	}
}

func TestMultiHostShape(t *testing.T) {
	o := quickOpts()
	o.CellTime = 400 * time.Millisecond
	points, err := MultiHost(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMultiHost(points); err != nil {
		t.Error(err)
	}
	var buf bytes.Buffer
	PrintMultiHost(&buf, points)
	if !strings.Contains(buf.String(), "instances") {
		t.Error("PrintMultiHost output malformed")
	}
}

// TestSlowEngineServesEveryRESTOp pins the Fig 4/5 service model to the
// engine calls a node makes: one rawhttp read and one update against a
// SlowEngine node each take at least Delay. A node that reached its
// engine past the hooked calls would serve them at memory speed, and
// only TestFigure45Shape's timing would notice.
func TestSlowEngineServesEveryRESTOp(t *testing.T) {
	ctx := context.Background()
	inner := newInner()
	defer inner.Close()
	if _, err := inner.Put("t", "k", map[string][]byte{"f": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := SlowEngine{Engine: inner, Delay: 20 * time.Millisecond}
	defer httpkv.ServeNode(eng, ln, nil, httpkv.NodeOptions{}).Shutdown(ctx)
	raw := httpkv.NewClient("http://"+ln.Addr().String(), nil)
	if err := raw.Init(properties.New()); err != nil {
		t.Fatal(err)
	}
	defer raw.Cleanup()

	start := time.Now()
	if _, err := raw.Read(ctx, "t", "k", nil); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < eng.Delay {
		t.Errorf("read took %v, want ≥ %v", took, eng.Delay)
	}
	start = time.Now()
	if err := raw.Update(ctx, "t", "k", db.Record{"f": []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < eng.Delay {
		t.Errorf("update took %v, want ≥ %v", took, eng.Delay)
	}
}
