package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The histogram's quantiles must stay within 1 % of the exact ones taken
// from the sorted samples, across the range latencies take here.
func TestHistQuantilesWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h hist
	samples := make([]float64, 200_000)
	for i := range samples {
		// Log-normal around 200 us with a long tail, like a commit.
		ns := math.Exp(rng.NormFloat64()*1.2 + math.Log(200_000))
		samples[i] = math.Floor(ns)
		h.observe(time.Duration(samples[i]))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 0.9999} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q%.4f: histogram %.0f ns, exact %.0f ns, off by %.2f %%", q, got, exact, 100*rel)
		}
	}
}

func TestHistBucketsAreContiguousAndNarrow(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<20 + 1<<13, 1 << 39, 1 << 50} {
		i := histIndex(ns)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d, after %d (of %d)", ns, i, prev, histBuckets)
		}
		prev = i
		if ns < 1<<40 && ns > 0 {
			if rel := math.Abs(histValue(i)-float64(ns)) / float64(ns); rel > 0.01 {
				t.Errorf("bucket of %d ns has midpoint %.1f, off by %.2f %%", ns, histValue(i), 100*rel)
			}
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	var h hist
	for i := 0; i < 5000; i++ {
		h.observe(time.Duration(i+1) * time.Microsecond)
	}
	// 5000 samples: 0.1 % is 5 samples (too few), 1 % is 50.
	if q, _ := h.tailQuantile(); q != 0.99 {
		t.Errorf("tail percentile of 5000 samples = %v, want 0.99", q)
	}
}

func TestMergeAddsUp(t *testing.T) {
	var a, b hist
	a.observe(time.Millisecond)
	b.observe(3 * time.Millisecond)
	b.observe(3 * time.Millisecond)
	a.merge(&b)
	if a.n != 3 || math.Abs(a.quantile(1)-3e6)/3e6 > 0.01 || math.Abs(a.quantile(0.3)-1e6)/1e6 > 0.01 {
		t.Errorf("merged: n=%d q1=%.0f q0.3=%.0f", a.n, a.quantile(1), a.quantile(0.3))
	}
}

// spread must use the quartiles of Python's statistics.quantiles(v, n=4),
// which is what the driver computes: for 1..10 they are 2.75, 5.5, 8.25.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{16, 1, 4, 2, 8}), (12.0-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
