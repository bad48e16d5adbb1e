// Package metrics provides the lightweight counters and latency histograms
// that the replication protocols and the experiment harness record: commit
// and abort counts, retry distributions, and commit-phase latency
// percentiles. Everything is lock-free on the hot path.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, backlog size). Unlike a
// Counter it can move both ways. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram records durations in geometrically spaced buckets from 1µs to
// ~17.9min; its Snapshot reports percentiles. It is safe for concurrent use.
type Histogram struct {
	buckets [_numBuckets]atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

const (
	_numBuckets  = 64
	_bucketBase  = float64(1 * time.Microsecond)
	_bucketRatio = 1.4
)

var _bucketBounds = func() [_numBuckets]time.Duration {
	var b [_numBuckets]time.Duration
	v := _bucketBase
	for i := range b {
		b[i] = time.Duration(v)
		v *= _bucketRatio
	}
	return b
}()

// bucketFor returns the index of the first bucket whose upper bound is >= d.
// The logarithm only lands near the right index — at exact bucket bounds the
// float rounding can go either way — so the estimate is corrected against the
// actual bounds table, which is the authoritative definition.
func bucketFor(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	idx := int(math.Ceil(math.Log(float64(d)/_bucketBase) / math.Log(_bucketRatio)))
	if idx < 0 {
		idx = 0
	}
	if idx >= _numBuckets {
		idx = _numBuckets - 1
	}
	for idx > 0 && _bucketBounds[idx-1] >= d {
		idx--
	}
	for idx < _numBuckets-1 && _bucketBounds[idx] < d {
		idx++
	}
	return idx
}

// BucketBounds returns the histogram bucket upper bounds, ascending. The last
// bucket additionally absorbs every observation above its bound.
func BucketBounds() []time.Duration {
	out := make([]time.Duration, _numBuckets)
	copy(out, _bucketBounds[:])
	return out
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Snapshot returns an immutable copy of the histogram. Snapshots are plain
// values: safe to retain, compare and read concurrently while the live
// histogram keeps observing.
//
// Observe updates bucket and sum with independent atomics, so a snapshot
// racing an observation can pair a sum with a bucket population that does
// not yet (or no longer) includes it. The snapshot is made self-consistent
// by deriving the count from the buckets and clamping the sum into the
// range the bucket populations admit, so Mean always lies within the
// observed bucket bounds.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.count += s.buckets[i]
	}
	s.sum = h.sum.Load()
	s.max = h.max.Load()

	// Clamp sum to [Σ nᵢ·lowerᵢ, Σ nᵢ·upperᵢ] (float accumulation: the clamp
	// is a consistency bound, not an exact value, and floats cannot overflow
	// here). The last bucket is unbounded above, so it never caps the sum.
	var lo, hi float64
	unbounded := s.buckets[_numBuckets-1] > 0
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		if i > 0 {
			lo += float64(n) * float64(_bucketBounds[i-1])
		}
		hi += float64(n) * float64(_bucketBounds[i])
	}
	if float64(s.sum) < lo {
		s.sum = int64(lo)
	}
	if !unbounded && float64(s.sum) > hi {
		s.sum = int64(hi)
	}
	if s.count == 0 {
		s.sum = 0
	}
	return s
}

// HistogramSnapshot is a point-in-time, immutable copy of a Histogram and
// the one way to read it.
type HistogramSnapshot struct {
	buckets [_numBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// Count returns the number of observations.
func (s HistogramSnapshot) Count() int64 { return s.count }

// Sum returns the total observed duration.
func (s HistogramSnapshot) Sum() time.Duration { return time.Duration(s.sum) }

// BucketCounts returns the per-bucket observation counts (not cumulative),
// parallel to BucketBounds.
func (s HistogramSnapshot) BucketCounts() []int64 {
	out := make([]int64, _numBuckets)
	copy(out, s.buckets[:])
	return out
}

// Mean returns the mean observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return time.Duration(s.sum / s.count)
}

// Max returns the largest observed duration.
func (s HistogramSnapshot) Max() time.Duration { return time.Duration(s.max) }

// Quantile returns an upper bound for the q-quantile at bucket resolution.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < _numBuckets; i++ {
		seen += s.buckets[i]
		if seen >= target {
			return _bucketBounds[i]
		}
	}
	return _bucketBounds[_numBuckets-1]
}

// String formats the key percentiles.
func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		s.Count(), s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Max())
}

// IntDist tracks a distribution of small non-negative integers exactly (for
// example, the number of aborts a transaction suffered before committing);
// Freeze reads it.
type IntDist struct {
	mu     sync.Mutex
	counts map[int]int64
	total  int64
	sum    int64
}

// NewIntDist creates an empty distribution.
func NewIntDist() *IntDist {
	return &IntDist{counts: make(map[int]int64)}
}

// Observe records one value.
func (d *IntDist) Observe(v int) {
	d.mu.Lock()
	d.counts[v]++
	d.total++
	d.sum += int64(v)
	d.mu.Unlock()
}

// Freeze returns an immutable copy of the distribution. Freezes are plain
// values: safe to retain and read concurrently while the live distribution
// keeps observing.
func (d *IntDist) Freeze() IntDistSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := IntDistSnapshot{total: d.total, sum: d.sum}
	if len(d.counts) > 0 {
		s.counts = make(map[int]int64, len(d.counts))
		for k, v := range d.counts {
			s.counts[k] = v
		}
	}
	return s
}

// IntDistSnapshot is a point-in-time, immutable copy of an IntDist and the
// one way to read it. The zero value is an empty distribution.
type IntDistSnapshot struct {
	counts map[int]int64
	total  int64
	sum    int64
}

// Count returns the number of observations.
func (s IntDistSnapshot) Count() int64 { return s.total }

// Mean returns the mean observed value.
func (s IntDistSnapshot) Mean() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.total)
}

// FractionAtMost returns the fraction of observations <= v.
func (s IntDistSnapshot) FractionAtMost(v int) float64 {
	if s.total == 0 {
		return 1
	}
	var n int64
	for k, c := range s.counts {
		if k <= v {
			n += c
		}
	}
	return float64(n) / float64(s.total)
}

// Max returns the largest observed value.
func (s IntDistSnapshot) Max() int {
	m := 0
	for k := range s.counts {
		if k > m {
			m = k
		}
	}
	return m
}

// Pairs returns the (value, count) pairs sorted by value.
func (s IntDistSnapshot) Pairs() [][2]int64 {
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][2]int64, len(keys))
	for i, k := range keys {
		out[i] = [2]int64{int64(k), s.counts[k]}
	}
	return out
}
