// Command experiments regenerates every figure of the YCSB+T paper's
// evaluation section and prints the series as text tables (and
// optionally JSON). See EXPERIMENTS.md for the paper-vs-measured
// comparison. It exits non-zero when a sweep misses the shape its
// figure must reproduce (bench.CheckFigure2 and friends).
//
//	experiments            # all figures, full-size sweeps
//	experiments -fig 3     # one figure
//	experiments -quick     # small sweeps (seconds instead of minutes)
//	experiments -json out.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"ycsbt/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// figures are the -fig values that name something to regenerate.
var figures = map[int]bool{0: true, 2: true, 3: true, 4: true, 5: true, 6: true, 8: true}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to regenerate (2, 3, 4, 5, 6 = oracle-RTT comparison, 8 = multi-host split; 0 = all)")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	verbose := fs.Bool("v", false, "log each cell as it completes")
	jsonPath := fs.String("json", "", "also write all series as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !figures[*fig] {
		return fmt.Errorf("-fig %d names no figure (have 0, 2-6, 8)", *fig)
	}

	opts := bench.SweepOptions{Quick: *quick}
	if *verbose {
		opts.Log = os.Stderr
	}
	ctx := context.Background()
	all := map[string]any{}
	var broken []error
	shape := func(name string, err error) {
		if err != nil {
			broken = append(broken, fmt.Errorf("%s shape: %w", name, err))
		}
	}

	want := func(n int) bool { return *fig == 0 || *fig == n }

	if want(2) {
		series, err := bench.Figure2(ctx, opts)
		if err != nil {
			return fmt.Errorf("figure 2: %w", err)
		}
		bench.PrintSeries(out,
			"Figure 2: YCSB+T transactional throughput on simulated WAS (CEW)",
			"txn/sec", bench.Tput, series)
		all["figure2"] = series
		shape("figure 2", bench.CheckFigure2(series))
	}
	if want(3) {
		series, err := bench.Figure3(ctx, opts)
		if err != nil {
			return fmt.Errorf("figure 3: %w", err)
		}
		bench.PrintSeries(out,
			"Figure 3: impact of transactions on throughput (CEW 90:10)",
			"ops/sec", bench.Tput, series)
		overhead(out, series)
		all["figure3"] = series
		shape("figure 3", bench.CheckFigure3(series))

		rows, err := bench.Tier5Overhead(ctx, opts)
		if err != nil {
			return fmt.Errorf("tier 5 table: %w", err)
		}
		bench.PrintOverhead(out, rows)
		all["tier5"] = rows
		shape("tier 5", bench.CheckTier5(rows))
	}
	if want(4) || want(5) {
		fig4, fig5, err := bench.Figure45(ctx, opts)
		if err != nil {
			return fmt.Errorf("figures 4/5: %w", err)
		}
		if want(4) {
			bench.PrintSeries(out,
				"Figure 4: threads vs anomaly score (non-transactional store over HTTP)",
				"anomaly score", bench.Score, []bench.Series{fig4})
			all["figure4"] = fig4
		}
		if want(5) {
			bench.PrintSeries(out,
				"Figure 5: threads vs throughput (non-transactional store over HTTP)",
				"ops/sec", bench.Tput, []bench.Series{fig5})
			all["figure5"] = fig5
		}
		shape("figures 4/5", bench.CheckFigure45(fig4, fig5))
	}

	if want(6) {
		series, err := bench.OracleSweep(ctx, opts)
		if err != nil {
			return fmt.Errorf("oracle sweep: %w", err)
		}
		bench.PrintOracleSweep(out, series)
		all["oracle_sweep"] = series
		shape("oracle sweep", bench.CheckOracleSweep(series))
	}

	if want(8) {
		points, err := bench.MultiHost(ctx, opts)
		if err != nil {
			return fmt.Errorf("multi-host sweep: %w", err)
		}
		bench.PrintMultiHost(out, points)
		all["multihost"] = points
		shape("multi-host split", bench.CheckMultiHost(points))
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonPath)
	}
	return errors.Join(broken...)
}

// overhead prints the tx/non-tx throughput ratio per thread count —
// the paper's "reduced by about 30 to 40%" claim.
func overhead(out io.Writer, series []bench.Series) {
	if len(series) != 2 {
		return
	}
	fmt.Fprintln(out, "Transactional overhead (tx / non-tx throughput):")
	for i, pt := range series[1].Points {
		if i < len(series[0].Points) && series[0].Points[i].Throughput > 0 {
			ratio := pt.Throughput / series[0].Points[i].Throughput
			fmt.Fprintf(out, "  threads=%-4d ratio=%.2f (overhead %.0f%%)\n",
				pt.Threads, ratio, (1-ratio)*100)
		}
	}
	fmt.Fprintln(out)
}
