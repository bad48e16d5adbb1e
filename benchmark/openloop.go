package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

const (
	probeRate    = 2000 // operations per second, both replicas together
	probeSeconds = 5
)

// openLoopProbe sends lease-local's operation on a fixed schedule whatever
// the replies do, times each from when it was due, and reports how late the
// generator itself ran. It is not gated: generator and cluster share the
// host's two cores, so the generator's lateness is of the order of a commit.
// It runs after the closed-loop callers have stopped; its requests overlap on
// a connection, so their increments are booked in the load's probe tables.
func openLoopProbe(l *load, seed int64, m metricSet) {
	keys := len(l.w.keys)
	l.probeAcked = make([]atomic.Int64, keys)
	l.probeUnsure = make([]atomic.Int64, keys)
	rng := rand.New(rand.NewSource(seed*1000003 + 104729))

	var (
		mu   sync.Mutex
		lat  hist
		wg   sync.WaitGroup
		late time.Duration
	)
	const n = probeRate * probeSeconds
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * time.Second / probeRate)
		time.Sleep(time.Until(due))
		late += time.Since(due)
		caller := i % numCallers
		key := caller*privateKeys + rng.Intn(privateKeys)
		client := l.callers[caller].client.Load()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Inc(l.w.keys[key], 1); err != nil {
				l.probeUnsure[key].Add(1)
				return
			}
			l.probeAcked[key].Add(1)
			d := time.Since(due)
			mu.Lock()
			lat.observe(d)
			mu.Unlock()
		}()
	}
	wg.Wait()
	m["loadgen.paced_p50_ms"] = lat.quantile(0.50) / nsPerMs
	m["loadgen.paced_p99_ms"] = lat.quantile(0.99) / nsPerMs
	m["loadgen.late_mean_us"] = float64(late.Microseconds()) / n
}
