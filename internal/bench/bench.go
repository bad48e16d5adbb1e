// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) on the simulated cluster, plus the
// ablations called out in DESIGN.md.
//
// Experiments are pure functions from parameters to structured results, so
// they are reusable from the cmd/alc-bench CLI, from the root-level
// testing.B benchmarks, and from tests (with shortened durations).
package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/cluster"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
)

// DefaultLatency is the simulated one-way network latency per hop. It is
// deliberately larger than the paper's Gigabit LAN so that it dominates the
// host's timer granularity (~1ms on a busy single-core machine): what the
// experiments compare is communication steps, and each step must cost a
// faithful, uniform amount.
const DefaultLatency = 1 * time.Millisecond

// DefaultPerMessageCost models receiver-side group-communication processing
// (the per-message cost of the paper's Appia stack): it makes heavily loaded
// endpoints — above all the atomic-broadcast sequencer — develop queueing
// delay as the cluster grows, the second ingredient of Figure 3's shape.
const DefaultPerMessageCost = 40 * time.Microsecond

// DefaultOrderInterval calibrates the sequencer's total-ordering capacity to
// the paper's baseline: D2STM/Appia sustained only a few hundred atomic
// broadcasts per second on the 2010 testbed (Figure 3's flat CERT curves),
// while this repository's from-scratch OAB would otherwise order messages
// nearly as fast as it UR-delivers them. ~1.2ms per ordered message caps AB
// capacity at ~800/s cluster-wide without touching URB traffic. Set
// Params.ABCeiling negative (alc-bench -ab-ceiling=-1) to benchmark the
// native sequencer instead; 0 keeps this calibration.
const DefaultOrderInterval = 1200 * time.Microsecond

// Params selects a cluster configuration for one experiment cell. Every
// experiment takes a base Params from its caller and derives its cells from
// it by copy, never from a fresh literal, so what the caller stamped on the
// base (Replicas, ABCeiling) reaches every cluster the experiment builds.
type Params struct {
	Protocol core.Protocol
	Replicas int
	// Latency is the one-way network latency (DefaultLatency if zero).
	Latency time.Duration
	// DisableOptimisticFree / DisablePiggybackCert turn off the §4.5
	// optimizations (b) and (c), both on by default for ALC: the A/B
	// controls of the latency table and ablation-opt.
	DisableOptimisticFree bool
	DisablePiggybackCert  bool
	// ConflictClasses: 0 = one class per data item (paper's setting).
	ConflictClasses int
	// BloomFPRate configures CERT's read-set encoding (0 = exact).
	BloomFPRate float64
	// ABCeiling is the sequencer pacing per ordered message: 0 keeps the
	// DefaultOrderInterval calibration, negative runs the native (much
	// faster than the paper's) atomic broadcast, positive overrides.
	ABCeiling time.Duration
}

func (p Params) String() string {
	return fmt.Sprintf("%v/n=%d", p.Protocol, p.Replicas)
}

// Cluster is a simulated cluster plus the calibration it was built under,
// which every result row copies: a row reports the sequencer it ran on, not
// the one its caller asked for.
type Cluster struct {
	*cluster.Cluster
	Params Params
	// OrderInterval is the sequencer pacing handed to the GCS (0 = native).
	OrderInterval time.Duration
}

// NewCluster builds a cluster for the given parameters and seed. It is the
// one place the calibration constants meet the GCS.
func NewCluster(p Params, seed map[string]stm.Value) (*Cluster, error) {
	latency := p.Latency
	if latency == 0 {
		latency = DefaultLatency
	}
	orderInterval := DefaultOrderInterval
	switch {
	case p.ABCeiling < 0:
		orderInterval = 0
	case p.ABCeiling > 0:
		orderInterval = p.ABCeiling
	}
	c, err := cluster.New(cluster.Config{
		N: p.Replicas,
		Core: core.Config{
			Protocol: p.Protocol,
			Lease: lease.Config{
				Mapper:         lease.Mapper{NumClasses: p.ConflictClasses},
				OptimisticFree: !p.DisableOptimisticFree,
			},
			DisablePiggybackCert: p.DisablePiggybackCert,
			BloomFPRate:          p.BloomFPRate,
		},
		Net: memnet.Config{Latency: latency, PerMessageCost: DefaultPerMessageCost},
		GCS: gcs.Config{
			HeartbeatInterval: 25 * time.Millisecond,
			SuspectAfter:      500 * time.Millisecond,
			FlushTimeout:      time.Second,
			OrderInterval:     orderInterval,
		},
		Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c, p, orderInterval}, nil
}

// Regime names the sequencer pacing a result row ran under, for titles,
// table columns and the CSV.
func Regime(orderInterval time.Duration) string {
	if orderInterval == 0 {
		return "native"
	}
	if orderInterval == DefaultOrderInterval {
		return "calibrated " + orderInterval.String()
	}
	return "paced " + orderInterval.String()
}

// Throughput is one measured experiment cell.
type Throughput struct {
	Params Params
	// OrderInterval is the sequencer pacing the cell ran under (0 = native).
	OrderInterval time.Duration
	Duration      time.Duration
	Commits       int64
	Aborts        int64
	CommitsPerSec float64
	AbortRate     float64
	// MeanCommitLatency / P99CommitLatency describe the commit-phase
	// latency distribution.
	MeanCommitLatency time.Duration
	P99CommitLatency  time.Duration
	// AtMostOnce is the fraction of committed transactions that suffered
	// at most one abort (the ALC shelter guarantee; §5 reports 98% for
	// Lee-TM under ALC).
	AtMostOnce float64
	// LeaseReuseRate is the fraction of ALC commits served by an already
	// held lease (zero-communication commits).
	LeaseReuseRate float64
	// Batch aggregates the group-commit pipeline counters across replicas.
	Batch BatchSummary
}

// BatchSummary is the cluster-wide view of the group-commit pipeline.
type BatchSummary struct {
	// Batches / Txns count write-set batches broadcast and the transactions
	// they carried.
	Batches, Txns int64
	// MeanSize / MaxSize describe the batch-size distribution.
	MeanSize float64
	MaxSize  int
	// SizePairs is the merged (size, count) distribution, sorted by size.
	SizePairs [][2]int64
	// Flush reason counters (why each batch was sealed).
	FlushIdle, FlushSize, FlushBytes, FlushWindow, FlushDrain int64
}

func (b BatchSummary) String() string {
	if b.Batches == 0 {
		return "no batches"
	}
	return fmt.Sprintf("batches=%d txns=%d mean=%.2f max=%d flushes[idle=%d size=%d bytes=%d window=%d drain=%d]",
		b.Batches, b.Txns, b.MeanSize, b.MaxSize,
		b.FlushIdle, b.FlushSize, b.FlushBytes, b.FlushWindow, b.FlushDrain)
}

// counts is a cluster-wide commit/abort total, snapshotted at the start of a
// measured window so warmup work is excluded from the rates.
type counts struct {
	commits, aborts int64
}

func snapshotCounts(c *Cluster) counts {
	var out counts
	for _, r := range c.Replicas() {
		s := r.Stats()
		out.commits += s.Commits
		out.aborts += s.Aborts
	}
	return out
}

// summarize reads the cluster's counters into one result cell. Commits and
// aborts (and the rates derived from them) are net of `before`; the latency
// and batch distributions and the per-commit ratios cover the cluster's
// whole life.
func summarize(c *Cluster, elapsed time.Duration, before counts) Throughput {
	var (
		commits, aborts, reuses int64
		atMostOnceWeighted      float64
	)
	var meanLat, p99Lat time.Duration
	var latCount int64
	var batch BatchSummary
	sizeCounts := map[int64]int64{}
	for _, r := range c.Replicas() {
		s := r.Stats()
		commits += s.Commits
		aborts += s.Aborts
		reuses += s.Lease.Reused
		atMostOnceWeighted += s.RetriesPerTxn.FractionAtMost(1) * float64(s.RetriesPerTxn.Count())
		if n := s.CommitLatency.Count(); n > 0 {
			meanLat += time.Duration(int64(s.CommitLatency.Mean()) * n)
			if l := s.CommitLatency.Quantile(0.99); l > p99Lat {
				p99Lat = l
			}
			latCount += n
		}
		batch.Batches += s.Batch.Batches
		batch.Txns += s.Batch.BatchedTxns
		batch.FlushIdle += s.Batch.FlushIdle
		batch.FlushSize += s.Batch.FlushSize
		batch.FlushBytes += s.Batch.FlushBytes
		batch.FlushWindow += s.Batch.FlushWindow
		batch.FlushDrain += s.Batch.FlushDrain
		for _, pc := range s.Batch.BatchSize.Pairs() {
			sizeCounts[pc[0]] += pc[1]
			if int(pc[0]) > batch.MaxSize {
				batch.MaxSize = int(pc[0])
			}
		}
	}
	if batch.Batches > 0 {
		batch.MeanSize = float64(batch.Txns) / float64(batch.Batches)
		sizes := make([]int64, 0, len(sizeCounts))
		for sz := range sizeCounts {
			sizes = append(sizes, sz)
		}
		sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
		for _, sz := range sizes {
			batch.SizePairs = append(batch.SizePairs, [2]int64{sz, sizeCounts[sz]})
		}
	}
	out := Throughput{
		Params:   c.Params,
		Duration: elapsed,
		Commits:  commits - before.commits,
		Aborts:   aborts - before.aborts,
		Batch:    batch,
	}
	out.OrderInterval = c.OrderInterval
	if elapsed > 0 {
		out.CommitsPerSec = float64(out.Commits) / elapsed.Seconds()
	}
	if out.Commits+out.Aborts > 0 {
		out.AbortRate = float64(out.Aborts) / float64(out.Commits+out.Aborts)
	}
	if commits > 0 {
		out.AtMostOnce = atMostOnceWeighted / float64(commits)
		out.LeaseReuseRate = float64(reuses) / float64(commits)
	}
	if latCount > 0 {
		out.MeanCommitLatency = meanLat / time.Duration(latCount)
		out.P99CommitLatency = p99Lat
	}
	return out
}

// drive runs `workers` closed loops against c and measures the cluster over
// `duration`, after `warmup`. loop(w) is called once on worker w's goroutine
// to set up its private state (RNG streams) and returns the body it then
// runs once per round until the window closes; the first error fails the
// cell.
func drive(c *Cluster, workers int, warmup, duration time.Duration, loop func(w int) func(round int) error) (Throughput, error) {
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
		errs = make(chan error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := loop(w)
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := body(round); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(warmup)
	before := snapshotCounts(c)
	start := time.Now()
	time.Sleep(duration)
	out := summarize(c, time.Since(start), before)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		return Throughput{}, err
	}
	return out, nil
}
