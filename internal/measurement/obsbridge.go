package measurement

import "ycsbt/internal/obs"

// ObsCollector bridges a measurement registry into an obs registry as
// a scrape-time collector, so a live /metrics scrape mid-run shows
// per-series operation counts and latency percentiles (the TX-*
// series included) without touching the hot recording path or
// perturbing the end-of-run exports — each scrape is an independent
// read-time merge of the shards, exactly like Snapshot.
//
// Register it on the obs registry the ops listener serves:
//
//	reg.RegisterCollector(measurement.ObsCollector(c.Registry()))
func ObsCollector(r *Registry) func() []obs.Sample {
	return func() []obs.Sample {
		sums := r.Snapshots()
		out := make([]obs.Sample, 0, len(sums)*5)
		for _, s := range sums {
			if s.Operations == 0 {
				continue
			}
			labels := []string{"series", s.Name}
			out = append(out,
				obs.Sample{
					Name: "ycsbt_operations_total", Kind: obs.KindCounter,
					Help:   "Operations recorded per measurement series.",
					Labels: labels, Value: float64(s.Operations),
				},
				obs.Sample{
					Name: "ycsbt_latency_avg_us", Kind: obs.KindGauge,
					Help:   "Mean per-item latency per series, microseconds.",
					Labels: labels, Value: s.AvgUS,
				},
				obs.Sample{
					Name: "ycsbt_latency_p50_ms", Kind: obs.KindGauge,
					Help:   "Median latency per series, milliseconds (1-ms buckets).",
					Labels: labels, Value: float64(s.P50MS),
				},
				obs.Sample{
					Name: "ycsbt_latency_p95_ms", Kind: obs.KindGauge,
					Help:   "95th-percentile latency per series, milliseconds.",
					Labels: labels, Value: float64(s.P95MS),
				},
				obs.Sample{
					Name: "ycsbt_latency_p99_ms", Kind: obs.KindGauge,
					Help:   "99th-percentile latency per series, milliseconds.",
					Labels: labels, Value: float64(s.P99MS),
				},
			)
		}
		return out
	}
}
