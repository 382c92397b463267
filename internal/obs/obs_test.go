package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterIsOneSeriesPerLabelSet(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "kind", "get")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() = %d, want 4", got)
	}
	// Same name+labels returns the same series; label order must not
	// split the series.
	if r.Counter("ops_total", "kind", "get") != c {
		t.Fatal("re-registration returned a different counter")
	}
	r.Counter("multi", "a", "1", "b", "2").Inc()
	r.Counter("multi", "b", "2", "a", "1").Inc()
	var b strings.Builder
	if err := r.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `multi{a="1",b="2"} 2`) {
		t.Fatalf("label order split the series:\n%s", b.String())
	}
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.GaugeFunc("lag", func() float64 { return 1 })
	// Re-registration replaces the function (runtime owner swap).
	r.GaugeFunc("lag", func() float64 { return 42 })
	var b strings.Builder
	if err := r.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "lag 42\n") {
		t.Fatalf("GaugeFunc re-registration did not replace fn:\n%s", b.String())
	}
}

func TestHistogramExport(t *testing.T) {
	r := NewRegistry()
	r.Help("latency_seconds", "Request latency.")
	h := r.Histogram("latency_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05) // le 0.1
	h.Observe(0.5)  // le 1
	h.Observe(0.5)  // le 1
	h.Observe(100)  // +Inf only
	h.Observe(5)    // le 10
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got := h.Sum(); got != 106.05 {
		t.Fatalf("Sum() = %g, want 106.05", got)
	}
	var b strings.Builder
	if err := r.Export(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP latency_seconds Request latency.",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`, // cumulative
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		"latency_seconds_sum 106.05",
		"latency_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestCollectorAndSortedFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Inc()
	r.RegisterCollector(func() []Sample {
		return []Sample{
			{Name: "aa_gauge", Kind: KindGauge, Help: "first.", Labels: []string{"s", "x"}, Value: 2.5},
		}
	})
	var b strings.Builder
	if err := r.Export(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `aa_gauge{s="x"} 2.5`) {
		t.Fatalf("collector sample missing:\n%s", text)
	}
	if strings.Index(text, "aa_gauge") > strings.Index(text, "zz_total") {
		t.Fatalf("families not sorted by name:\n%s", text)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "v", "a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.Export(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", b.String())
	}
}

// TestNilSafety drives the whole API through nil receivers — the
// contract instrumented code relies on instead of enabled checks.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("b")
	g.Set(1)
	g.Add(1)
	_ = g.Value()
	r.GaugeFunc("c", func() float64 { return 1 })
	h := r.Histogram("d", DurationBuckets)
	h.Observe(1)
	_ = h.Count()
	_ = h.Sum()
	r.Help("a", "help")
	r.RegisterCollector(func() []Sample { return nil })
	if err := r.Export(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if Enabled(false) != nil {
		t.Fatal("Enabled(false) != nil")
	}
	if Enabled(true) != Default() {
		t.Fatal("Enabled(true) != Default()")
	}
}

// TestConcurrentScrape hammers counters, gauges, histograms and
// registration from many goroutines while scraping the
// exposition concurrently; run under -race this is the registry's
// thread-safety proof.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	r.Counter("w_total", "writer", "0") // family exists before the first scrape
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("w_total", "writer", fmt.Sprint(id))
			h := r.Histogram("w_seconds", DurationBuckets, "writer", fmt.Sprint(id))
			g := r.Gauge("w_inflight")
			for j := 0; ; j++ {
				c.Inc()
				h.Observe(float64(j%100) / 1000)
				g.Add(1)
				g.Add(-1)
				if j%64 == 0 {
					// Exercise registration under load too.
					r.Counter("w_total", "writer", fmt.Sprint(id)).Inc()
				}
				if j == 0 {
					ready.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	ready.Wait()
	for s := 0; s < 20; s++ {
		var b strings.Builder
		if err := r.Export(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "# TYPE w_total counter") {
			t.Fatalf("scrape %d missing w_total family", s)
		}
	}
	close(stop)
	wg.Wait()
	var b strings.Builder
	if err := r.Export(&b); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := 0; i < writers; i++ {
		total += r.Counter("w_total", "writer", fmt.Sprint(i)).Value()
	}
	if total == 0 {
		t.Fatal("no counts recorded")
	}
}

// Overhead benchmarks: the same instrumented hot path against a live
// registry and against nil (metrics off). The delta is the cost the
// acceptance criterion bounds at ≤2% of engine ops/s.
func benchmarkInstrumentedOp(b *testing.B, reg *Registry) {
	c := reg.Counter("bench_ops_total", "kind", "put")
	h := reg.Histogram("bench_seconds", DurationBuckets, "kind", "put")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
			h.Observe(0.000123)
		}
	})
}

func BenchmarkMetricsOn(b *testing.B)  { benchmarkInstrumentedOp(b, NewRegistry()) }
func BenchmarkMetricsOff(b *testing.B) { benchmarkInstrumentedOp(b, nil) }
