package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 10000 {
		t.Fatalf("Value = %d, want 10000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(10 * time.Millisecond)

	s := h.Snapshot()
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.Max() != 10*time.Millisecond {
		t.Fatalf("Max = %v, want 10ms", s.Max())
	}
	mean := s.Mean()
	if mean < 4*time.Millisecond || mean > 5*time.Millisecond {
		t.Fatalf("Mean = %v, want ~4.33ms", mean)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	p50, p90, p99 := s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// Bucket resolution is a factor of 1.4: allow that much slack.
	if p50 < 400*time.Microsecond || p50 > 800*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
}

func TestHistogramExtremeDurations(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamped to first bucket
	h.Observe(0)
	h.Observe(24 * time.Hour) // clamped to last bucket
	s := h.Snapshot()
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.Quantile(1.0) != _bucketBounds[_numBuckets-1] {
		t.Fatalf("Quantile(1) = %v, want last bucket bound", s.Quantile(1.0))
	}
}

func TestQuickQuantileIsUpperBound(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		maxD := time.Duration(0)
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			if d > maxD {
				maxD = d
			}
			h.Observe(d)
		}
		// The 100th percentile upper bound must be >= the true max
		// (within the last-bucket clamp).
		q := h.Snapshot().Quantile(1.0)
		return q >= maxD || q == _bucketBounds[_numBuckets-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(5)
	if got := g.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("Value = %d, want -3", got)
	}
}

// bucketForReference is the authoritative linear scan bucketFor is checked
// against: first bucket whose upper bound is >= d, last bucket otherwise.
func bucketForReference(d time.Duration) int {
	for i, b := range _bucketBounds {
		if b >= d {
			return i
		}
	}
	return _numBuckets - 1
}

func TestBucketForMatchesReferenceScan(t *testing.T) {
	// Exact bucket bounds and their ±1ns neighbours are where the log-based
	// estimate historically disagreed with the bounds table.
	cases := []time.Duration{0, -time.Second, 1, time.Microsecond - 1,
		time.Microsecond, time.Microsecond + 1, 24 * time.Hour, 1<<62 - 1}
	for _, b := range _bucketBounds {
		cases = append(cases, b-1, b, b+1)
	}
	for _, d := range cases {
		if got, want := bucketFor(d), bucketForReference(d); got != want {
			t.Errorf("bucketFor(%v) = %d, want %d (bound[%d]=%v)", d, got, want, want, _bucketBounds[want])
		}
	}
}

func TestQuickBucketForMatchesReferenceScan(t *testing.T) {
	f := func(ns int64) bool {
		d := time.Duration(ns)
		return bucketFor(d) == bucketForReference(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketBoundsAccessor(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds) != _numBuckets {
		t.Fatalf("len(BucketBounds()) = %d, want %d", len(bounds), _numBuckets)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
	bounds[0] = 0 // mutating the copy must not affect the histogram's table
	if BucketBounds()[0] == 0 {
		t.Fatal("BucketBounds returned a live reference, want a copy")
	}
}

// TestHistogramSnapshotConsistentUnderRace hammers a histogram with
// concurrent Observe calls while snapshotting, and asserts every snapshot is
// internally consistent: count matches the bucket populations and the mean
// lies within the bounds those populations admit. Run with -race.
func TestHistogramSnapshotConsistentUnderRace(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	durations := []time.Duration{5 * time.Microsecond, 80 * time.Microsecond, 3 * time.Millisecond}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(durations[(i+j)%len(durations)])
			}
		}(i)
	}
	lo, hi := durations[0], durations[len(durations)-1]
	loBound := _bucketBounds[bucketFor(lo)-1] // lower edge of lo's bucket
	hiBound := _bucketBounds[bucketFor(hi)]   // upper edge of hi's bucket
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var n int64
		for _, c := range s.BucketCounts() {
			n += c
		}
		if n != s.Count() {
			t.Fatalf("snapshot count %d != bucket total %d", s.Count(), n)
		}
		if s.Count() == 0 {
			if s.Sum() != 0 || s.Mean() != 0 {
				t.Fatalf("empty snapshot has sum=%v mean=%v", s.Sum(), s.Mean())
			}
			continue
		}
		if m := s.Mean(); m < loBound || m > hiBound {
			t.Fatalf("snapshot mean %v outside admissible range [%v, %v] (count=%d sum=%v)",
				m, loBound, hiBound, s.Count(), s.Sum())
		}
	}
	close(stop)
	wg.Wait()
}

func TestIntDist(t *testing.T) {
	d := NewIntDist()
	for _, v := range []int{0, 0, 1, 1, 1, 2, 5} {
		d.Observe(v)
	}
	s := d.Freeze()
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	if got := s.FractionAtMost(1); got < 0.70 || got > 0.72 {
		t.Fatalf("FractionAtMost(1) = %v, want 5/7", got)
	}
	if s.Max() != 5 {
		t.Fatalf("Max = %d, want 5", s.Max())
	}
	if mean := s.Mean(); mean < 1.42 || mean > 1.43 {
		t.Fatalf("Mean = %v, want 10/7", mean)
	}
	pairs := s.Pairs()
	if len(pairs) != 4 || pairs[0] != [2]int64{0, 2} || pairs[3] != [2]int64{5, 1} {
		t.Fatalf("Pairs = %v", pairs)
	}
}

func TestIntDistEmpty(t *testing.T) {
	s := NewIntDist().Freeze()
	if s.Mean() != 0 || s.Max() != 0 || s.FractionAtMost(0) != 1 {
		t.Fatal("empty IntDist should report zeros and full fraction")
	}
}
