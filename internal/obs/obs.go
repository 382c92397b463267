// Package obs is the live observability layer: a dependency-free
// metric registry (counters, gauges, histograms) with a Prometheus
// text-format exporter, plus an ops HTTP listener serving /metrics,
// /healthz and net/http/pprof (http.go).
//
// # Recording
//
// A Counter or Histogram is one block of plain atomics, and a
// Counter's is padded to a cache line of its own. Writers that must
// not contend register a series each: the engine labels every series
// by shard, so each partition and each WAL segment writes its own
// cells. Readers (the /metrics scrape) load the atomics at read time —
// the cold path.
//
// # Nil safety
//
// Every method on *Registry and on the metric types is a no-op on a
// nil receiver. Instrumented code therefore never checks whether
// metrics are enabled: wiring a nil *Registry through an Options
// struct turns the whole layer into dead branches, which is also how
// the registry-on/off overhead benchmark measures cost.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the Prometheus metric type of a family.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DurationBuckets are the default histogram bounds for latencies, in
// seconds: 50µs up to 10s, roughly ×2–2.5 per step.
var DurationBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets are the default bounds for size-like observations
// (batch occupancy, queue lengths): powers of two up to 1024.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Counter is a monotonically increasing series. Its atomic is padded
// so counters allocated side by side never share a cache line.
type Counter struct {
	n atomic.Int64
	_ [56]byte
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Nil-safe (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a settable instantaneous value. A single atomic — gauges
// are set, not accumulated, so there is nothing to shard.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (use for inflight-style up/down
// tracking). Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge. Nil-safe (returns 0).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed cumulative buckets
// (Prometheus le semantics). Durations observe seconds.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // one per bucket; the last slot is +Inf
	sumBits atomic.Uint64  // the float64 sum, CAS'd as bits
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records v. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v is the le bucket; past the end is +Inf.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// snapshot loads the per-bucket counts (non-cumulative), the total
// count, and the sum.
func (h *Histogram) snapshot() (counts []int64, total int64, sum float64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total, math.Float64frombits(h.sumBits.Load())
}

// Count returns the observation count. Nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	_, n, _ := h.snapshot()
	return n
}

// Sum returns the observation sum. Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	_, _, s := h.snapshot()
	return s
}

// Sample is one scrape-time data point emitted by a collector:
// derived values (queue depths, live percentiles from the measurement
// bridge, runtime stats) that are computed when /metrics is read
// rather than maintained on a hot path.
type Sample struct {
	Name   string   // metric family name
	Kind   Kind     // KindGauge or KindCounter
	Help   string   // optional; first non-empty help per family wins
	Labels []string // alternating key, value
	Value  float64
}

// series is one registered (family, labels) pair.
type series struct {
	labels string // rendered `k="v",…` fragment, canonical (sorted keys)
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	kind   Kind
	help   string
	order  []string // label fragments in registration order
	series map[string]*series
}

// Registry holds metric families and scrape-time collectors. All
// methods are safe for concurrent use and no-ops on a nil receiver.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []func() []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry backs Default(): the process-wide registry that the
// -ops-addr listeners serve and that property-driven bindings attach
// to (obs.enabled=true).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Enabled returns the process-wide registry when on is true and nil
// otherwise — the one-liner bindings use to honour the "obs.enabled"
// workload property (a nil registry disables instrumentation
// entirely; see the nil-safety contract above).
func Enabled(on bool) *Registry {
	if on {
		return defaultRegistry
	}
	return nil
}

// labelFragment renders alternating key/value pairs as `k="v",…` with
// keys sorted so the same label set always names the same series.
// Values are escaped per the exposition format.
func labelFragment(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	if len(labels)%2 != 0 {
		pairs = append(pairs, kv{labels[len(labels)-1], ""})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getSeries returns (creating if absent) the series for name+labels,
// checking the family kind. A kind clash is a programming error and
// panics, like the upstream Prometheus client.
func (r *Registry) getSeries(name string, kind Kind, labels []string) *series {
	frag := labelFragment(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind == "" {
		f.kind = kind // family pre-created by Help
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[frag]
	if !ok {
		s = &series{labels: frag}
		f.series[frag] = s
		f.order = append(f.order, frag)
	}
	return s
}

// Counter returns (creating if absent) the counter series for
// name+labels, given as alternating key, value. Nil-safe: a nil
// registry returns a nil Counter whose methods no-op.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns (creating if absent) the gauge series for name+labels.
// Nil-safe.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers fn as the scrape-time value of the gauge series
// for name+labels, replacing any previous function for the same
// series (so an owner swapped at runtime re-registers cleanly).
// Nil-safe.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.getSeries(name, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gf = fn
}

// Histogram returns (creating if absent) the histogram series for
// name+labels with the given bucket upper bounds (+Inf is implicit).
// Bounds are fixed at first registration. Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.getSeries(name, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

// Help sets the # HELP text of a metric family. Nil-safe.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = help
	} else {
		r.families[name] = &family{name: name, help: help, series: make(map[string]*series)}
	}
}

// RegisterCollector adds a scrape-time sample source; every /metrics
// read invokes it and merges its samples into the exposition.
// Nil-safe.
func (r *Registry) RegisterCollector(fn func() []Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// exportLine is one sample line of the exposition.
type exportLine struct {
	name  string // full series name including labels
	value string
}

// exportFamily is a family resolved for export.
type exportFamily struct {
	kind  Kind
	help  string
	lines []exportLine
}

// Export writes the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with a # TYPE line
// (and # HELP when set), histograms expanded into cumulative
// _bucket{le=…}, _sum and _count. Nil-safe.
func (r *Registry) Export(w io.Writer) error {
	if r == nil {
		return nil
	}
	out := make(map[string]*exportFamily)
	ensure := func(name string, kind Kind, help string) *exportFamily {
		ef, ok := out[name]
		if !ok {
			ef = &exportFamily{kind: kind, help: help}
			out[name] = ef
		}
		if ef.help == "" {
			ef.help = help
		}
		return ef
	}

	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	collectors := append([]func() []Sample(nil), r.collectors...)
	r.mu.RUnlock()

	for _, f := range fams {
		r.mu.RLock()
		order := append([]string(nil), f.order...)
		kind, help := f.kind, f.help
		serieses := make([]*series, 0, len(order))
		for _, frag := range order {
			serieses = append(serieses, f.series[frag])
		}
		r.mu.RUnlock()
		if len(serieses) == 0 {
			continue
		}
		ef := ensure(f.name, kind, help)
		for _, s := range serieses {
			switch {
			case s.c != nil:
				ef.lines = append(ef.lines, exportLine{seriesName(f.name, s.labels), strconv.FormatInt(s.c.Value(), 10)})
			case s.gf != nil:
				ef.lines = append(ef.lines, exportLine{seriesName(f.name, s.labels), formatFloat(s.gf())})
			case s.g != nil:
				ef.lines = append(ef.lines, exportLine{seriesName(f.name, s.labels), strconv.FormatInt(s.g.Value(), 10)})
			case s.h != nil:
				appendHistogramLines(ef, f.name, s.labels, s.h)
			}
		}
	}

	for _, fn := range collectors {
		for _, smp := range fn() {
			kind := smp.Kind
			if kind == "" {
				kind = KindGauge
			}
			ef := ensure(smp.Name, kind, smp.Help)
			ef.lines = append(ef.lines, exportLine{
				seriesName(smp.Name, labelFragment(smp.Labels)),
				formatFloat(smp.Value),
			})
		}
	}

	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ef := out[n]
		if len(ef.lines) == 0 {
			continue
		}
		if ef.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, ef.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, ef.kind); err != nil {
			return err
		}
		for _, l := range ef.lines {
			if _, err := fmt.Fprintf(w, "%s %s\n", l.name, l.value); err != nil {
				return err
			}
		}
	}
	return nil
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// appendHistogramLines expands one histogram series into its
// cumulative bucket, sum and count lines.
func appendHistogramLines(ef *exportFamily, name, labels string, h *Histogram) {
	counts, total, sum := h.snapshot()
	var cum int64
	for i, b := range h.bounds {
		cum += counts[i]
		ef.lines = append(ef.lines, exportLine{
			seriesName(name+"_bucket", joinLabels(labels, `le="`+formatFloat(b)+`"`)),
			strconv.FormatInt(cum, 10),
		})
	}
	ef.lines = append(ef.lines,
		exportLine{seriesName(name+"_bucket", joinLabels(labels, `le="+Inf"`)), strconv.FormatInt(total, 10)},
		exportLine{seriesName(name+"_sum", labels), formatFloat(sum)},
		exportLine{seriesName(name+"_count", labels), strconv.FormatInt(total, 10)},
	)
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
