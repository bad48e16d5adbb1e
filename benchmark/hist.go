package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-size log-bucket latency histogram: 128 sub-buckets per
// power of two, so a bucket is at most 1/128 (0.78 %) wide and a reported
// quantile is within 0.4 % of the exact one. The size does not depend on
// how many samples are recorded, so the harness's own memory stays out of
// peak_rss_mb however fast the program under test gets.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Values are nanoseconds; 2^40 ns (18 min) is far beyond the watchdog.
	histMaxExp  = 40 - histSubBits
	histBuckets = (histMaxExp + 2) * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - (histSubBits + 1)
	if exp > histMaxExp {
		return histBuckets - 1
	}
	// ns>>exp is in [histSub, 2*histSub): octave exp+1, sub-bucket ns>>exp-histSub.
	return (exp+1)*histSub + int(ns>>uint(exp)) - histSub
}

// histValue returns the midpoint of bucket i, in nanoseconds.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	exp := uint(i/histSub - 1)
	lo := int64(histSub+i%histSub) << exp
	return float64(lo) + float64(int64(1)<<exp)/2
}

func (h *hist) observe(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty): the bucket
// holding the sample of rank ceil(q*n).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// tailQuantile returns the highest of p99.99, p99.9, p99, p90 that still has
// at least ten samples beyond it, and that percentile's value in ns.
func (h *hist) tailQuantile() (q float64, ns float64) {
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if float64(h.n)*(1-q) >= 10 {
			return q, h.quantile(q)
		}
	}
	return 0.5, h.quantile(0.5)
}
