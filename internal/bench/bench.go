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
// Params.UncappedAB (or alc-bench -ab-ceiling=0) to benchmark the native
// sequencer instead.
const DefaultOrderInterval = 1200 * time.Microsecond

// Params selects a cluster configuration for one experiment cell.
type Params struct {
	Protocol core.Protocol
	Replicas int
	// Latency is the one-way network latency (DefaultLatency if zero).
	Latency time.Duration
	// OptimisticFree / PiggybackCert toggle the §4.5 optimizations
	// (both on by default for ALC unless DisableOpts is set).
	DisableOptimisticFree bool
	PiggybackCert         bool
	// ConflictClasses: 0 = one class per data item (paper's setting).
	ConflictClasses int
	// BloomFPRate configures CERT's read-set encoding (0 = exact).
	BloomFPRate float64
	// DeadlockDetection enables the §4.4 wait-for-graph detector.
	DeadlockDetection bool
	// UncappedAB disables the DefaultOrderInterval calibration and runs the
	// native (much faster than the paper's) atomic broadcast.
	UncappedAB bool
	// OrderInterval overrides the calibration when positive.
	OrderInterval time.Duration
	// Batch overrides individual group-commit knobs (zero value = defaults).
	Batch core.BatchConfig
	// Route wires the locality-aware transaction router (internal/route)
	// over the cluster: the affinity variant of ablation-routing submits
	// through Cluster.Submit instead of calling a replica directly.
	Route bool
	// Shards partitions the conflict classes across this many independent
	// lease/broadcast groups per replica (core.Config.Shards). 0 = 1.
	Shards int
}

func (p Params) String() string {
	return fmt.Sprintf("%v/n=%d", p.Protocol, p.Replicas)
}

// NewCluster builds a cluster for the given parameters and seed.
func NewCluster(p Params, seed map[string]stm.Value) (*cluster.Cluster, error) {
	latency := p.Latency
	if latency == 0 {
		latency = DefaultLatency
	}
	orderInterval := DefaultOrderInterval
	if p.UncappedAB {
		orderInterval = 0
	}
	if p.OrderInterval > 0 {
		orderInterval = p.OrderInterval
	}
	return cluster.New(cluster.Config{
		N:     p.Replicas,
		Route: p.Route,
		Core: core.Config{
			Protocol: p.Protocol,
			Lease: lease.Config{
				Mapper:            lease.Mapper{NumClasses: p.ConflictClasses},
				OptimisticFree:    !p.DisableOptimisticFree,
				DeadlockDetection: p.DeadlockDetection,
			},
			PiggybackCert: p.PiggybackCert,
			BloomFPRate:   p.BloomFPRate,
			Batch:         p.Batch,
			Shards:        p.Shards,
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
}

// Throughput is one measured experiment cell.
type Throughput struct {
	Params        Params
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
	FlushIdle, FlushSize, FlushBytes, FlushWindow, FlushDrain, FlushCross int64
	// ApplyTasks / ApplyMaxParallel describe the parallel apply stage.
	ApplyTasks       int64
	ApplyMaxParallel int64
}

func (b BatchSummary) String() string {
	if b.Batches == 0 {
		return "no batches"
	}
	return fmt.Sprintf("batches=%d txns=%d mean=%.2f max=%d flushes[idle=%d size=%d bytes=%d window=%d drain=%d cross=%d] apply[tasks=%d maxpar=%d]",
		b.Batches, b.Txns, b.MeanSize, b.MaxSize,
		b.FlushIdle, b.FlushSize, b.FlushBytes, b.FlushWindow, b.FlushDrain, b.FlushCross,
		b.ApplyTasks, b.ApplyMaxParallel)
}

func summarize(p Params, c *cluster.Cluster, elapsed time.Duration) Throughput {
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
		batch.FlushCross += s.Batch.FlushCross
		batch.ApplyTasks += s.Batch.ApplyTasks
		if int(s.Batch.ApplyMaxParallel) > int(batch.ApplyMaxParallel) {
			batch.ApplyMaxParallel = s.Batch.ApplyMaxParallel
		}
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
		Params:   p,
		Duration: elapsed,
		Commits:  commits,
		Aborts:   aborts,
		Batch:    batch,
	}
	if elapsed > 0 {
		out.CommitsPerSec = float64(commits) / elapsed.Seconds()
	}
	if commits+aborts > 0 {
		out.AbortRate = float64(aborts) / float64(commits+aborts)
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
