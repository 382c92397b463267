package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ycsbt/internal/cloudsim"
	"ycsbt/internal/oracle"
	"ycsbt/internal/percolator"
	"ycsbt/internal/txn"
)

// OracleSweep quantifies the paper's Section II-B architectural
// claim: Percolator-style protocols "depend on a central
// fault-tolerant timestamp service ... making this technique
// unsuitable for client applications spread across relatively
// high-latency WANs", while the client-coordinated design "does not
// rely upon a central timestamp manager".
//
// Both protocols run the same CEW 90:10 workload against identical
// simulated stores; the sweep variable is the round-trip time to the
// timestamp oracle. The client-coordinated library never contacts an
// oracle, so its curve is flat; the Percolator-style baseline pays
// one RTT per read-only transaction and two per read-write
// transaction, so its throughput collapses as the oracle moves away.
func OracleSweep(ctx context.Context, o SweepOptions) ([]Series, error) {
	o = o.withDefaults(nil)
	rtts := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	if o.Quick {
		rtts = []time.Duration{0, 5 * time.Millisecond}
	}
	const threads = 16

	// A mild store profile isolates the oracle effect: enough latency
	// for threads to matter, no rate cap or pool contention.
	storeCfg := cloudsim.Config{
		Name:         "was",
		ReadLatency:  time.Millisecond,
		WriteLatency: 2 * time.Millisecond,
	}

	perc := Series{Label: "percolator (central TO)"}
	cherry := Series{Label: "client-coordinated"}
	for _, rtt := range rtts {
		// Percolator-style with a Delayed oracle.
		{
			inner := newInner()
			cloud := cloudsim.NewOver(storeCfg, inner)
			to := oracle.NewDelayed(oracle.NewLocal(), rtt)
			loadM, err := percolator.NewManager(percolator.Options{},
				txn.NewLocalStore("was", inner), oracle.NewLocal())
			if err != nil {
				return nil, err
			}
			runM, err := percolator.NewManager(percolator.Options{}, cloud, to)
			if err != nil {
				return nil, err
			}
			p := cewProps(o, threads, 0.9)
			res, v, err := runCell(ctx, p, percolator.NewBinding(loadM), percolator.NewBinding(runM), o.CellTime)
			inner.Close()
			if err != nil {
				return nil, err
			}
			perc.Points = append(perc.Points, point(int(rtt.Milliseconds()), res, v))
			o.logf("oracle-sweep percolator rtt=%v: %.1f txn/s", rtt, res.Throughput)
		}
		// Client-coordinated over the same store profile (no oracle).
		{
			inner := newInner()
			cloud := cloudsim.NewOver(storeCfg, inner)
			loadM, err := txn.NewManager(txn.Options{}, txn.NewLocalStore("was", inner))
			if err != nil {
				return nil, err
			}
			runM, err := txn.NewManager(txn.Options{}, cloud)
			if err != nil {
				return nil, err
			}
			p := cewProps(o, threads, 0.9)
			res, v, err := runCell(ctx, p, txn.NewBinding(loadM), txn.NewBinding(runM), o.CellTime)
			inner.Close()
			if err != nil {
				return nil, err
			}
			cherry.Points = append(cherry.Points, point(int(rtt.Milliseconds()), res, v))
			o.logf("oracle-sweep client-coordinated rtt=%v: %.1f txn/s", rtt, res.Throughput)
		}
	}
	return []Series{perc, cherry}, nil
}

// PrintOracleSweep renders the oracle sweep with an RTT x-axis.
func PrintOracleSweep(wr io.Writer, series []Series) {
	title := "Section II-B claim: central timestamp oracle vs client-coordinated, by oracle RTT"
	fmt.Fprintf(wr, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(wr, "%-12s", "oracle RTT")
	for _, s := range series {
		fmt.Fprintf(wr, " %26s", s.Label)
	}
	fmt.Fprintf(wr, "   (txn/sec)\n")
	if len(series) == 0 {
		return
	}
	for i := range series[0].Points {
		fmt.Fprintf(wr, "%-12s", fmt.Sprintf("%dms", series[0].Points[i].Threads))
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(wr, " %26.1f", s.Points[i].Throughput)
			}
		}
		fmt.Fprintln(wr)
	}
	fmt.Fprintln(wr)
}
