package generator

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestConstant(t *testing.T) {
	c := NewConstant(7)
	r := newRand()
	for i := 0; i < 10; i++ {
		if got := c.Next(r); got != 7 {
			t.Fatalf("Next = %d", got)
		}
	}
	if c.Last() != 7 {
		t.Errorf("Last = %d", c.Last())
	}
}

func TestCounterMonotonic(t *testing.T) {
	c := NewCounter(5)
	r := newRand()
	prev := int64(4)
	for i := 0; i < 1000; i++ {
		v := c.Next(r)
		if v != prev+1 {
			t.Fatalf("counter not sequential: %d after %d", v, prev)
		}
		prev = v
	}
	if c.Last() != prev {
		t.Errorf("Last = %d, want %d", c.Last(), prev)
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter(0)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	seen := make([]map[int64]bool, workers)
	for w := 0; w < workers; w++ {
		seen[w] = make(map[int64]bool, per)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				seen[w][c.Next(r)] = true
			}
		}(w)
	}
	wg.Wait()
	all := make(map[int64]bool)
	for _, m := range seen {
		for v := range m {
			if all[v] {
				t.Fatalf("duplicate counter value %d", v)
			}
			all[v] = true
		}
	}
	if len(all) != workers*per {
		t.Errorf("got %d distinct values, want %d", len(all), workers*per)
	}
}

func TestAcknowledgedCounter(t *testing.T) {
	a := NewAcknowledgedCounter(0)
	r := newRand()
	v0 := a.Next(r) // 0
	v1 := a.Next(r) // 1
	v2 := a.Next(r) // 2
	if a.Last() != -1 {
		t.Fatalf("Last before any ack = %d, want -1", a.Last())
	}
	a.Acknowledge(v1)
	if a.Last() != -1 {
		t.Fatalf("Last after acking only middle = %d, want -1", a.Last())
	}
	a.Acknowledge(v0)
	if a.Last() != v1 {
		t.Fatalf("Last = %d, want %d (contiguous through v1)", a.Last(), v1)
	}
	a.Acknowledge(v2)
	if a.Last() != v2 {
		t.Fatalf("Last = %d, want %d", a.Last(), v2)
	}
	a.Acknowledge(v0) // duplicate ack must be harmless
	if a.Last() != v2 {
		t.Fatalf("Last after dup ack = %d", a.Last())
	}
}

func TestAcknowledgedCounterConcurrent(t *testing.T) {
	a := NewAcknowledgedCounter(0)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				a.Acknowledge(a.Next(r))
			}
		}(w)
	}
	wg.Wait()
	if got := a.Last(); got != workers*per-1 {
		t.Errorf("Last = %d, want %d", got, workers*per-1)
	}
}

// Property: the acknowledged counter's limit never exceeds the
// highest acknowledged value.
func TestAcknowledgedCounterLimitQuick(t *testing.T) {
	f := func(ackOrder []uint8) bool {
		a := NewAcknowledgedCounter(0)
		r := newRand()
		n := len(ackOrder)
		if n == 0 {
			return true
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = a.Next(r)
		}
		maxAcked := int64(-1)
		acked := make(map[int64]bool)
		for _, o := range ackOrder {
			v := vals[int(o)%n]
			a.Acknowledge(v)
			acked[v] = true
			if v > maxAcked {
				maxAcked = v
			}
			limit := a.Last()
			if limit > maxAcked {
				return false
			}
			for i := int64(0); i <= limit; i++ {
				if !acked[i] {
					return false // limit covers an unacked value
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUniformBounds(t *testing.T) {
	u := NewUniform(10, 20)
	r := newRand()
	counts := make(map[int64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		v := u.Next(r)
		if v < 10 || v > 20 {
			t.Fatalf("out of range: %d", v)
		}
		if u.Last() != v {
			t.Fatalf("Last = %d after Next = %d", u.Last(), v)
		}
		counts[v]++
	}
	// Each of the 11 values should get roughly n/11 draws.
	want := float64(n) / 11
	for v := int64(10); v <= 20; v++ {
		got := float64(counts[v])
		if math.Abs(got-want) > want*0.15 {
			t.Errorf("value %d drawn %v times, want ≈%v", v, got, want)
		}
	}
}

func TestUniformPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewUniform(5, 4)
}

func TestZipfianBoundsQuick(t *testing.T) {
	f := func(seed int64, itemsRaw uint16) bool {
		items := int64(itemsRaw%1000) + 1
		z := NewZipfian(0, items)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			v := z.Next(r)
			if v < 0 || v >= items {
				return false
			}
			if z.Last() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(0, 1000)
	r := newRand()
	counts := make(map[int64]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next(r)]++
	}
	// Item 0 must be the most popular and markedly more popular than
	// item 100.
	if counts[0] <= counts[100] {
		t.Errorf("no skew: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
	// With theta=0.99 over 1000 items, item 0 draws ≈ 1/zetan ≈ 13 %.
	frac := float64(counts[0]) / n
	if frac < 0.08 || frac > 0.20 {
		t.Errorf("item 0 fraction = %v, want ≈0.13", frac)
	}
}

func TestZipfianGrowingItemCount(t *testing.T) {
	z := NewZipfian(0, 100)
	r := newRand()
	for i := 0; i < 100; i++ {
		if v := z.NextCount(r, 200); v < 0 || v >= 200 {
			t.Fatalf("out of range with grown count: %d", v)
		}
	}
	// Shrink back down (delete-heavy) must also stay in range.
	for i := 0; i < 100; i++ {
		if v := z.NextCount(r, 50); v < 0 || v >= 50 {
			t.Fatalf("out of range with shrunk count: %d", v)
		}
	}
}

func TestFNVHash64(t *testing.T) {
	// Non-negative and deterministic.
	vals := []int64{0, 1, -1, 12345, math.MaxInt64, math.MinInt64 + 1}
	for _, v := range vals {
		h1, h2 := FNVHash64(v), FNVHash64(v)
		if h1 != h2 {
			t.Errorf("FNVHash64(%d) not deterministic", v)
		}
		if h1 < 0 {
			t.Errorf("FNVHash64(%d) = %d, want non-negative", v, h1)
		}
	}
	if FNVHash64(1) == FNVHash64(2) {
		t.Error("suspicious collision between 1 and 2")
	}
}

func TestScrambledZipfianBounds(t *testing.T) {
	s := NewScrambledZipfian(100, 199)
	r := newRand()
	seen := make(map[int64]bool)
	for i := 0; i < 20000; i++ {
		v := s.Next(r)
		if v < 100 || v > 199 {
			t.Fatalf("out of range: %d", v)
		}
		if s.Last() != v {
			t.Fatalf("Last mismatch")
		}
		seen[v] = true
	}
	// The scramble should spread popularity across most of the space.
	if len(seen) < 90 {
		t.Errorf("only %d distinct keys seen, want ≥90", len(seen))
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	s := NewScrambledZipfian(0, 999)
	r := newRand()
	counts := make(map[int64]int)
	for i := 0; i < 100000; i++ {
		counts[s.Next(r)]++
	}
	// The hottest key should NOT be key 0 systematically — find the
	// top key and check skew exists somewhere.
	var hot int64
	for k, c := range counts {
		if c > counts[hot] {
			hot = k
		}
	}
	if counts[hot] < 2*100000/1000 {
		t.Errorf("no hotspot found: max count %d", counts[hot])
	}
}

func TestSkewedLatest(t *testing.T) {
	basis := NewCounter(0)
	r := newRand()
	for i := 0; i < 100; i++ {
		basis.Next(r) // insert 100 records: keys 0..99
	}
	s := NewSkewedLatest(basis)
	counts := make(map[int64]int)
	for i := 0; i < 50000; i++ {
		v := s.Next(r)
		if v < 0 || v > 99 {
			t.Fatalf("out of range: %d", v)
		}
		counts[v]++
	}
	if counts[99] <= counts[10] {
		t.Errorf("latest key not hottest: counts[99]=%d counts[10]=%d", counts[99], counts[10])
	}
}

func TestSkewedLatestGrowsWithBasis(t *testing.T) {
	basis := NewCounter(0)
	r := newRand()
	basis.Next(r)
	s := NewSkewedLatest(basis)
	s.Next(r)
	for i := 0; i < 500; i++ {
		basis.Next(r)
	}
	sawHigh := false
	for i := 0; i < 2000; i++ {
		if v := s.Next(r); v > 250 {
			sawHigh = true
		} else if v < 0 || v > basis.Last() {
			t.Fatalf("out of range: %d (basis %d)", v, basis.Last())
		}
	}
	if !sawHigh {
		t.Error("skewed-latest never tracked the growing basis")
	}
}

func TestHotspot(t *testing.T) {
	h := NewHotspot(0, 99, 0.2, 0.8)
	r := newRand()
	hot := 0
	const n = 50000
	for i := 0; i < n; i++ {
		v := h.Next(r)
		if v < 0 || v > 99 {
			t.Fatalf("out of range: %d", v)
		}
		if v < 20 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("hot fraction = %v, want ≈0.8", frac)
	}
}

func TestHotspotDegenerate(t *testing.T) {
	// All-hot: cold interval is empty, must not panic.
	h := NewHotspot(0, 9, 1.0, 0.5)
	r := newRand()
	for i := 0; i < 1000; i++ {
		if v := h.Next(r); v < 0 || v > 9 {
			t.Fatalf("out of range: %d", v)
		}
	}
	// Out-of-range fractions fall back to defaults.
	h2 := NewHotspot(0, 9, -1, 2)
	for i := 0; i < 1000; i++ {
		if v := h2.Next(r); v < 0 || v > 9 {
			t.Fatalf("out of range with default fractions: %d", v)
		}
	}
}

func TestExponential(t *testing.T) {
	e := NewExponential(95, 0.8571428571, 1000)
	r := newRand()
	within := 0
	const n = 50000
	for i := 0; i < n; i++ {
		v := e.Next(r)
		if v < 0 {
			t.Fatalf("negative draw %d", v)
		}
		if float64(v) < 0.8571428571*1000 {
			within++
		}
	}
	frac := float64(within) / n
	if frac < 0.93 || frac > 0.97 {
		t.Errorf("fraction within range = %v, want ≈0.95", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	e := NewExponentialMean(100)
	r := newRand()
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(e.Next(r))
	}
	mean := sum / n
	if mean < 90 || mean > 110 {
		t.Errorf("sample mean = %v, want ≈100", mean)
	}
}

func TestSequentialWraps(t *testing.T) {
	s := NewSequential(5, 7)
	r := newRand()
	want := []int64{5, 6, 7, 5, 6, 7, 5}
	for i, w := range want {
		if got := s.Next(r); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
	if s.Last() != 5 {
		t.Errorf("Last = %d", s.Last())
	}
}

func TestDiscreteProportions(t *testing.T) {
	d := NewDiscrete()
	d.Add(0.9, "read")
	d.Add(0.1, "rmw")
	d.Add(0, "never")
	r := newRand()
	counts := map[string]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.NextString(r)
		if d.LastString() != v {
			t.Fatal("LastString mismatch")
		}
		counts[v]++
	}
	if counts["never"] != 0 {
		t.Errorf("zero-weight value chosen %d times", counts["never"])
	}
	frac := float64(counts["read"]) / n
	if frac < 0.88 || frac > 0.92 {
		t.Errorf("read fraction = %v, want ≈0.9", frac)
	}
}

func TestDiscretePanics(t *testing.T) {
	d := NewDiscrete()
	d.Add(0, "only-zero")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for all-zero weights")
			}
		}()
		d.NextString(newRand())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for negative weight")
			}
		}()
		d.Add(-1, "neg")
	}()
}

func TestDiscreteAccessors(t *testing.T) {
	d := NewDiscrete()
	d.Add(0.5, "a")
	d.Add(0.5, "b")
	vals := d.Values()
	if len(vals) != 2 || vals[0] != "a" || vals[1] != "b" {
		t.Errorf("Values = %v", vals)
	}
	if d.Weight("a") != 0.5 || d.Weight("missing") != 0 {
		t.Errorf("Weight wrong: a=%v missing=%v", d.Weight("a"), d.Weight("missing"))
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(0, 10000)
	r := newRand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Next(r)
	}
}

func BenchmarkScrambledZipfianNext(b *testing.B) {
	s := NewScrambledZipfian(0, 9999)
	r := newRand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Next(r)
	}
}

// TestLastIsWhatNextReturned: every generator whose Last is documented
// as "the most recent value produced" reports what its Next just
// returned, without advancing the sequence.
func TestLastIsWhatNextReturned(t *testing.T) {
	gens := map[string]Integer{
		"Constant":         NewConstant(7),
		"Counter":          NewCounter(3),
		"Uniform":          NewUniform(10, 20),
		"Zipfian":          NewZipfian(0, 100),
		"ScrambledZipfian": NewScrambledZipfian(0, 100),
		"SkewedLatest":     NewSkewedLatest(NewCounter(100)),
		"Hotspot":          NewHotspot(0, 99, 0.2, 0.8),
		"Exponential":      NewExponential(95, 0.8571, 100),
		"ExponentialMean":  NewExponentialMean(10),
		"Sequential":       NewSequential(5, 8),
	}
	for name, g := range gens {
		r := newRand()
		for i := 0; i < 50; i++ {
			v := g.Next(r)
			if got := g.Last(); got != v {
				t.Fatalf("%s: draw %d: Last = %d, want %d, what Next returned", name, i, got, v)
			}
			if got := g.Last(); got != v {
				t.Fatalf("%s: draw %d: a second Last = %d, want %d", name, i, got, v)
			}
		}
	}
}
