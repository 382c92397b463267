package bench

import "fmt"

// sized fails unless there are n series of at least two points each.
func sized(what string, series []Series, n int) error {
	if len(series) != n {
		return fmt.Errorf("%s has %d series, want %d", what, len(series), n)
	}
	for _, s := range series {
		if len(s.Points) < 2 {
			return fmt.Errorf("%s has %d points, want at least 2", s.Label, len(s.Points))
		}
	}
	return nil
}

func first(s Series) Point { return s.Points[0] }
func last(s Series) Point  { return s.Points[len(s.Points)-1] }

// anomalyFree fails on the first dead or anomalous cell of a
// transactional series.
func anomalyFree(s Series) error {
	for _, pt := range s.Points {
		if pt.Throughput <= 0 || pt.AnomalyScore != 0 {
			return fmt.Errorf("%s at %d: throughput %.1f, anomaly score %g on a transactional run",
				s.Label, pt.Threads, pt.Throughput, pt.AnomalyScore)
		}
	}
	return nil
}

// CheckFigure2: every cell is live and anomaly-free, every mix gains
// throughput from its first thread count to its last, and at the last
// the 90:10 mix outruns 70:30.
func CheckFigure2(series []Series) error {
	if err := sized("figure 2", series, 3); err != nil {
		return err
	}
	for _, s := range series {
		if err := anomalyFree(s); err != nil {
			return err
		}
		if f, l := first(s), last(s); l.Throughput <= f.Throughput {
			return fmt.Errorf("%s: no scaling from %d to %d threads (%.1f → %.1f)",
				s.Label, f.Threads, l.Threads, f.Throughput, l.Throughput)
		}
	}
	if hi, lo := last(series[0]), last(series[2]); hi.Throughput <= lo.Throughput {
		return fmt.Errorf("at %d threads 90:10 (%.1f) should outperform 70:30 (%.1f)", hi.Threads, hi.Throughput, lo.Throughput)
	}
	return nil
}

// CheckFigure3: at the first and last thread counts transactions cost
// at least a tenth of the throughput, but leave at least a quarter of
// the non-transactional rate (the paper reports 30-40% overhead).
func CheckFigure3(series []Series) error {
	if err := sized("figure 3", series, 2); err != nil {
		return err
	}
	for _, end := range []func(Series) Point{first, last} {
		n, x := end(series[0]), end(series[1])
		if ratio := x.Throughput / n.Throughput; !(ratio >= 0.25 && ratio <= 0.9) {
			return fmt.Errorf("threads=%d: tx %.1f vs non-tx %.1f, want a ratio in [0.25, 0.9]", n.Threads, x.Throughput, n.Throughput)
		}
	}
	return nil
}

// CheckTier5: a transactional read-modify-write takes longer on
// average than a non-transactional one (the paper's Tier 5 overhead).
func CheckTier5(rows []OverheadRow) error {
	for _, r := range rows {
		if r.Series != "TX-READMODIFYWRITE" {
			continue
		}
		if r.NonTxCount == 0 || r.TxCount == 0 || r.TxUS <= r.NonTxUS {
			return fmt.Errorf("TX-READMODIFYWRITE: tx %.1fus over %d ops vs non-tx %.1fus over %d, want tx slower",
				r.TxUS, r.TxCount, r.NonTxUS, r.NonTxCount)
		}
		return nil
	}
	return fmt.Errorf("tier 5 has no TX-READMODIFYWRITE row")
}

// CheckFigure45: the first cell, one thread, shows no anomalies (the
// paper's Figure 4 claim), and throughput grows to the last cell.
func CheckFigure45(fig4, fig5 Series) error {
	if err := sized("figures 4/5", []Series{fig4, fig5}, 2); err != nil {
		return err
	}
	if f := first(fig4); f.AnomalyScore != 0 {
		return fmt.Errorf("anomaly score %g at %d thread(s), want 0", f.AnomalyScore, f.Threads)
	}
	if f, l := first(fig5), last(fig5); l.Throughput <= f.Throughput {
		return fmt.Errorf("no local-store scaling: %.0f → %.0f", f.Throughput, l.Throughput)
	}
	return nil
}

// CheckOracleSweep: both protocols stay anomaly-free, Percolator loses
// over 30% of its throughput from the nearest oracle to the farthest,
// and the client-coordinated curve stays within 0.6-1.6× of its start.
func CheckOracleSweep(series []Series) error {
	if err := sized("oracle sweep", series, 2); err != nil {
		return err
	}
	for _, s := range series {
		if err := anomalyFree(s); err != nil {
			return err
		}
	}
	if f, l := first(series[0]), last(series[0]); l.Throughput >= f.Throughput*0.7 {
		return fmt.Errorf("oracle RTT did not hurt percolator: %.1f → %.1f", f.Throughput, l.Throughput)
	}
	return flat("client-coordinated curve", first(series[1]).Throughput, last(series[1]).Throughput)
}

// CheckMultiHost: splitting the client threads across instances leaves
// the rate-capped aggregate within 0.6-1.6× of the single instance.
func CheckMultiHost(points []MultiHostPoint) error {
	if len(points) < 2 {
		return fmt.Errorf("multi-host sweep has %d points, want at least 2", len(points))
	}
	return flat("instance split", points[0].TotalThroughput, points[len(points)-1].TotalThroughput)
}

func flat(what string, from, to float64) error {
	if ratio := to / from; !(ratio >= 0.6 && ratio <= 1.6) {
		return fmt.Errorf("%s not flat: %.1f → %.1f (ratio %.2f)", what, from, to, ratio)
	}
	return nil
}
