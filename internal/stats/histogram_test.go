package stats

import (
	"math"
	"math/bits"
	"reflect"
	"testing"
	"testing/quick"

	"prism/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram stats not all zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	if h.CDF() != nil {
		t.Error("empty histogram CDF != nil")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	if h.Count() != 1 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Errorf("min/max/mean = %v/%v/%v, want 42", h.Min(), h.Max(), h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if h.Quantile(q) != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, h.Quantile(q))
		}
	}
}

func TestHistogramPercentile(t *testing.T) {
	scale := NewHistogram()
	for i := 1; i <= 100; i++ {
		scale.Record(sim.Time(i))
	}
	single := NewHistogram()
	single.Record(42)

	tests := []struct {
		name string
		h    *Histogram
		p    float64
		want sim.Time
	}{
		{"empty returns zero", NewHistogram(), 50, 0},
		{"empty min", NewHistogram(), 0, 0},
		{"empty max", NewHistogram(), 100, 0},
		{"zero is exact min", scale, 0, 1},
		{"hundred is exact max", scale, 100, 100},
		{"median nearest rank", scale, 50, 50},
		{"p99", scale, 99, 99},
		{"below range clamps to min", scale, -5, 1},
		{"above range clamps to max", scale, 150, 100},
		{"single value any p", single, 73, 42},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.Percentile(tc.p); got != tc.want {
				t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
			}
		})
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below subBuckets are recorded exactly.
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(sim.Time(i))
	}
	// Nearest-rank: median of 0..99 is the 50th smallest value, i.e. 49.
	if got := h.Quantile(0.5); got != 49 {
		t.Errorf("median = %v, want 49", got)
	}
	if got := h.Quantile(0.99); got != 98 {
		t.Errorf("p99 = %v, want 98", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Errorf("Min = %v, want 0", h.Min())
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	var exact []sim.Time
	r := sim.NewRNG(9)
	for i := 0; i < 50000; i++ {
		v := sim.Time(r.Intn(100_000_000)) // up to 100ms
		h.Record(v)
		exact = append(exact, v)
	}
	SortTimes(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := QuantileOfSorted(exact, q)
		got := h.Quantile(q)
		if want == 0 {
			continue
		}
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.01 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f)", q, got, want, relErr)
		}
	}
}

func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		h := NewHistogram()
		for _, v := range raw {
			h.Record(sim.Time(v))
		}
		prev := sim.Time(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10; i++ {
		h.Record(sim.Time(i))
	}
	pts := h.CDF()
	if len(pts) != 10 {
		t.Fatalf("CDF has %d points, want 10", len(pts))
	}
	if pts[len(pts)-1].Fraction != 1.0 {
		t.Errorf("last CDF fraction = %v, want 1", pts[len(pts)-1].Fraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction <= pts[i-1].Fraction || pts[i].Value <= pts[i-1].Value {
			t.Errorf("CDF not strictly increasing at %d", i)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(sim.Time(i))
		b.Record(sim.Time(i + 100))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Errorf("Count = %d, want 200", a.Count())
	}
	if a.Min() != 0 || a.Max() != 199 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
	a.Merge(nil) // no-op
	if a.Count() != 200 {
		t.Error("Merge(nil) changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset did not clear")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Error("histogram unusable after Reset")
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	s := h.Summarize()
	if s.Count != 1 {
		t.Errorf("Count = %d", s.Count)
	}
	str := s.String()
	if str == "" {
		t.Error("empty summary string")
	}
}

func TestFormatCDF(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	h.Record(2000)
	out := FormatCDF(h.CDF())
	if out == "" {
		t.Error("empty CDF output")
	}
}

func TestQuantileOfSortedEdges(t *testing.T) {
	if QuantileOfSorted(nil, 0.5) != 0 {
		t.Error("empty slice quantile != 0")
	}
	s := []sim.Time{10, 20, 30}
	if QuantileOfSorted(s, 0) != 10 || QuantileOfSorted(s, 1) != 30 {
		t.Error("edge quantiles wrong")
	}
	if QuantileOfSorted(s, 0.5) != 20 {
		t.Error("median wrong")
	}
}

func TestRateCounter(t *testing.T) {
	c := NewRateCounter("rx")
	c.Start(0)
	// 1000 packets of 100B over 10ms => 100 kpps, 0.08 Gbps
	for i := 0; i < 1000; i++ {
		c.Add(sim.Time(i)*10*sim.Microsecond, 1, 100)
	}
	now := 10 * sim.Millisecond
	if got := c.Kpps(now); math.Abs(got-100) > 1 {
		t.Errorf("Kpps = %v, want ~100", got)
	}
	if got := c.Gbps(now); math.Abs(got-0.08) > 0.001 {
		t.Errorf("Gbps = %v, want ~0.08", got)
	}
	if c.Count() != 1000 || c.Bytes() != 100000 {
		t.Errorf("count/bytes = %d/%d", c.Count(), c.Bytes())
	}
	if c.String() == "" {
		t.Error("empty string")
	}
}

func TestRateCounterAutoStart(t *testing.T) {
	// Add before Start opens the window at the first observation's
	// timestamp, not at time zero: 5 events at t=1s then 5 at t=2s is
	// 10 events over a 1s window.
	c := NewRateCounter("x")
	c.Add(sim.Second, 5, 0)
	c.Add(2*sim.Second, 5, 0)
	if got := c.PerSecond(2 * sim.Second); math.Abs(got-10) > 0.01 {
		t.Errorf("PerSecond = %v, want 10 (window starts at first Add)", got)
	}
}

func TestRateCounterNonMonotonic(t *testing.T) {
	// Merged shard streams can replay observations out of timestamp order.
	// Every event still counts, the window's start stays at the first
	// observation, and its end never regresses below the latest time seen.
	c := NewRateCounter("x")
	c.Add(2*sim.Second, 1, 0)
	c.Add(sim.Second, 1, 0) // out of order: must not move the window
	c.Add(3*sim.Second, 1, 0)
	if c.Count() != 3 {
		t.Fatalf("Count = %d, want 3", c.Count())
	}
	// Window is [2s, 3s]: 3 events over 1s.
	if got := c.PerSecond(3 * sim.Second); math.Abs(got-3) > 0.01 {
		t.Errorf("PerSecond = %v, want 3", got)
	}
	if v := c.PerSecond(2 * sim.Second); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("PerSecond with stale now = %v", v)
	}
}

func TestRateCounterZeroWindow(t *testing.T) {
	c := NewRateCounter("x")
	c.Start(100)
	c.Add(100, 1, 1)
	// Must not divide by zero.
	if v := c.PerSecond(100); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("PerSecond on zero window = %v", v)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(sim.Time(i % 1000000))
	}
}

func TestMergeHistogramsMatchesSingleRecorder(t *testing.T) {
	// Shard-local recording split across three histograms must merge to
	// exactly what one recorder would have seen.
	whole := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	rng := sim.NewRNG(9)
	for i := 0; i < 5000; i++ {
		v := sim.Time(rng.Intn(2_000_000))
		whole.Record(v)
		parts[i%3].Record(v)
	}
	merged := MergeHistograms(parts...)
	if !reflect.DeepEqual(merged.Summarize(), whole.Summarize()) {
		t.Errorf("merged summary %v != whole %v", merged.Summarize(), whole.Summarize())
	}
	if !reflect.DeepEqual(merged.CDF(), whole.CDF()) {
		t.Error("merged CDF bucket counts differ from single-recorder CDF")
	}
	// Merge order cannot matter for the contents.
	reversed := MergeHistograms(parts[2], parts[1], parts[0])
	if !reflect.DeepEqual(reversed.CDF(), merged.CDF()) {
		t.Error("merge is order-sensitive")
	}
}

func TestMergeHistogramsEmpty(t *testing.T) {
	m := MergeHistograms()
	if m.Count() != 0 {
		t.Errorf("empty merge count = %d", m.Count())
	}
	m = MergeHistograms(NewHistogram(), nil)
	if m.Count() != 0 {
		t.Errorf("merge with nil count = %d", m.Count())
	}
}

func TestRateCounterMerge(t *testing.T) {
	a := NewRateCounter("q0")
	a.Start(0)
	a.Add(10*sim.Millisecond, 100, 1000)
	b := NewRateCounter("q1")
	b.Start(5 * sim.Millisecond)
	b.Add(20*sim.Millisecond, 300, 3000)
	a.Merge(b)
	if a.Count() != 400 || a.Bytes() != 4000 {
		t.Errorf("count/bytes = %d/%d, want 400/4000", a.Count(), a.Bytes())
	}
	// Window is the union [0, 20ms]: 400 events over 20ms = 20 kpps.
	if got := a.Kpps(20 * sim.Millisecond); math.Abs(got-20) > 0.01 {
		t.Errorf("Kpps = %v, want 20", got)
	}
	// Merging into a never-started counter adopts the other's window.
	c := NewRateCounter("agg")
	c.Merge(b)
	if got := c.PerSecond(20 * sim.Millisecond); math.Abs(got-20000) > 1 {
		t.Errorf("PerSecond = %v, want 20000 (15ms window)", got)
	}
	c.Merge(nil) // no-op
	if c.Count() != 300 {
		t.Errorf("count after nil merge = %d", c.Count())
	}
}

// denseHist is the reference implementation the row-on-demand Histogram is
// checked against: one eagerly allocated 64×128 count array with the same
// (exponent, mantissa-slot) geometry, walked in full by every query.
type denseHist struct {
	counts   [64 * 128]uint64
	count    uint64
	sum      float64
	min, max int64
}

func newDense() *denseHist { return &denseHist{min: math.MaxInt64, max: -1} }

func denseIndex(v int64) int {
	if v < 128 {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 8
	return exp*128 + int(uint64(v)>>uint(exp))
}

func denseLow(i int) int64 {
	if i < 128 {
		return int64(i)
	}
	exp := i/128 - 1
	return int64(i-exp*128) << uint(exp)
}

func (d *denseHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	d.counts[denseIndex(v)]++
	d.count++
	d.sum += float64(v)
	d.min = min(d.min, v)
	d.max = max(d.max, v)
}

func (d *denseHist) merge(o *denseHist) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		d.counts[i] += c
	}
	d.count += o.count
	d.sum += o.sum
	d.min = min(d.min, o.min)
	d.max = max(d.max, o.max)
}

func (d *denseHist) quantile(q float64) sim.Time {
	switch {
	case d.count == 0:
		return 0
	case q <= 0:
		return sim.Time(d.min)
	case q >= 1:
		return sim.Time(d.max)
	}
	rank := max(uint64(math.Ceil(q*float64(d.count))), 1)
	var seen uint64
	for i, c := range d.counts {
		if seen += c; seen >= rank {
			return sim.Time(min(max(denseLow(i), d.min), d.max))
		}
	}
	return sim.Time(d.max)
}

func (d *denseHist) cdf() []CDFPoint {
	if d.count == 0 {
		return nil
	}
	var pts []CDFPoint
	var seen uint64
	for i, c := range d.counts {
		if c == 0 {
			continue
		}
		seen += c
		pts = append(pts, CDFPoint{Value: sim.Time(denseLow(i)), Fraction: float64(seen) / float64(d.count)})
	}
	return pts
}

// sameAsDense fails t unless h answers every query exactly as d does.
func sameAsDense(t *testing.T, what string, h *Histogram, d *denseHist) {
	t.Helper()
	if h.Count() != d.count || h.Sum() != d.sum {
		t.Fatalf("%s: count/sum = %d/%v, want %d/%v", what, h.Count(), h.Sum(), d.count, d.sum)
	}
	var wantMin, wantMax, wantMean sim.Time
	if d.count > 0 {
		wantMin, wantMax, wantMean = sim.Time(d.min), sim.Time(d.max), sim.Time(d.sum/float64(d.count))
	}
	if h.Min() != wantMin || h.Max() != wantMax || h.Mean() != wantMean {
		t.Fatalf("%s: min/max/mean = %v/%v/%v, want %v/%v/%v", what,
			h.Min(), h.Max(), h.Mean(), wantMin, wantMax, wantMean)
	}
	for q := -0.1; q <= 1.1; q += 0.0025 {
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, got, want)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if got, want := h.Quantile(q), d.quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", what, q, got, want)
		}
	}
	if got, want := h.CDF(), d.cdf(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: CDF differs from the dense reference (%d vs %d points)", what, len(got), len(want))
	}
}

// edgeValues are the geometry's boundaries: the linear range's ends, the
// first octave's ends, the top of the representable range, and negatives
// (clamped to zero).
var edgeValues = []int64{0, 1, 127, 128, 129, 255, 256, 511, 512, 1<<20 - 1, 1 << 20, 1<<62 - 1, -1, -1 << 40}

// fill records n seeded values into both h and d: edge values first, then
// values spread log-uniformly up to 2^maxBits.
func fill(h *Histogram, d *denseHist, rng *sim.RNG, n, maxBits int, edges bool) {
	if edges {
		for _, v := range edgeValues {
			h.Record(sim.Time(v))
			d.record(v)
		}
	}
	for i := 0; i < n; i++ {
		v := int64(rng.Uint64() >> uint(64-1-rng.Intn(maxBits)))
		h.Record(sim.Time(v))
		d.record(v)
	}
}

func TestHistogramMatchesDenseReference(t *testing.T) {
	rng := sim.NewRNG(13)
	for trial, bitsMax := range []int{7, 8, 12, 20, 30, 40, 62} {
		h, d := NewHistogram(), newDense()
		sameAsDense(t, "empty", h, d)
		fill(h, d, rng, 4000, bitsMax, trial%2 == 0)
		sameAsDense(t, "recorded", h, d)

		// Reuse after Reset: rows are kept, answers start over.
		h.Reset()
		d = newDense()
		sameAsDense(t, "reset", h, d)
		fill(h, d, rng, 1000, bitsMax, true)
		sameAsDense(t, "refilled", h, d)
	}
}

func TestHistogramMergeMatchesDenseReference(t *testing.T) {
	rng := sim.NewRNG(17)
	cases := []struct {
		name           string
		dstN, srcN     int
		dstTop, srcTop int
	}{
		{"src has more rows", 500, 500, 10, 40},
		{"dst has more rows", 500, 500, 40, 10},
		{"into empty", 0, 500, 1, 30},
		{"from empty", 500, 0, 30, 1},
		{"both empty", 0, 0, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, da := NewHistogram(), newDense()
			b, db := NewHistogram(), newDense()
			fill(a, da, rng, tc.dstN, tc.dstTop, false)
			fill(b, db, rng, tc.srcN, tc.srcTop, false)
			ab, dab := MergeHistograms(a, b), newDense()
			dab.merge(da)
			dab.merge(db)
			sameAsDense(t, "a+b", ab, dab)
			// Both directions of in-place Merge agree with the reference.
			a.Merge(b)
			da.merge(db)
			sameAsDense(t, "a.Merge(b)", a, da)
			b.Merge(ab)
			db.merge(dab)
			sameAsDense(t, "b.Merge(a+b)", b, db)
		})
	}
}

func TestHistogramRowsOnDemand(t *testing.T) {
	h := NewHistogram()
	if len(h.rows) != 0 {
		t.Fatalf("empty histogram holds %d rows", len(h.rows))
	}
	allocated := func() int {
		n := 0
		for _, r := range h.rows {
			if r != nil {
				n++
			}
		}
		return n
	}
	// [2^20, 2^21) is one octave: one row, however many values.
	for v := int64(1 << 20); v < 1<<21; v += 997 {
		h.Record(sim.Time(v))
	}
	if n := allocated(); n != 1 {
		t.Errorf("values within one octave allocated %d rows, want 1", n)
	}
	h.Record(5)
	h.Record(1 << 40)
	if n := allocated(); n != 3 {
		t.Errorf("three octaves allocated %d rows, want 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(1<<20 + 12345) }); n != 0 {
		t.Errorf("recording into an existing row allocates %.1f times", n)
	}
	e := NewHistogram()
	e.Merge(NewHistogram())
	if len(e.rows) != 0 {
		t.Error("merging an empty histogram allocated rows")
	}
}
