// Package alc is a replicated software transactional memory implementing
// Asynchronous Lease Certification (ALC), after Carvalho, Romano and
// Rodrigues, "Asynchronous Lease-Based Replication of Software Transactional
// Memory", Middleware 2010.
//
// A cluster of replicas each hosts a full copy of a multi-version
// transactional heap (versioned boxes, as in JVSTM). Transactions run
// locally against a consistent snapshot with no inter-replica communication
// until commit time; 1-copy serializability is then enforced by one of two
// replication protocols:
//
//   - ALC (the default): the replica establishes an asynchronous lease on
//     the transaction's conflict classes — one optimistic atomic broadcast,
//     skipped entirely while the lease is retained — and disseminates only
//     the write-set with a single uniform reliable broadcast (two
//     communication steps). Transactions aborted by a remote conflict
//     re-execute while the lease is held, so they abort at most once.
//
//   - CERT: the classical AB-based certification baseline (as in D2STM):
//     every commit atomically broadcasts the Bloom-encoded read-set and the
//     write-set, and every replica validates it deterministically in the
//     total order. Simpler, but every commit pays for total ordering and
//     nothing bounds re-executions under contention.
//
// Read-only transactions never abort, never block, and remain available even
// on replicas partitioned away from the primary component (on a possibly
// stale snapshot).
//
// # Quickstart
//
//	cluster, err := alc.NewCluster(alc.Config{Replicas: 3})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	cluster.Seed(map[string]alc.Value{"acct:a": 100, "acct:b": 0})
//
//	r := cluster.Replica(0)
//	err = r.Atomic(func(tx *alc.Tx) error {
//		a, err := tx.ReadInt("acct:a")
//		if err != nil { return err }
//		tx.Write("acct:a", a-10)
//		b, _ := tx.ReadInt("acct:b")
//		tx.Write("acct:b", b+10)
//		return nil
//	})
//
// Values stored in boxes must be treated as immutable: they are shared
// across snapshots and replicas.
package alc

import (
	"errors"
	"time"

	"github.com/alcstm/alc/internal/cluster"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
)

// Value is the content of a box. Values must be immutable.
type Value = stm.Value

// Protocol selects the replication scheme.
type Protocol int

const (
	// ALC is Asynchronous Lease Certification (the paper's contribution).
	ALC Protocol = Protocol(core.ProtocolALC)
	// CERT is the atomic-broadcast certification baseline (D2STM-style).
	CERT Protocol = Protocol(core.ProtocolCert)
)

// String returns the protocol name.
func (p Protocol) String() string { return core.Protocol(p).String() }

// Errors surfaced by the public API (see also the sentinel read errors).
var (
	// ErrEjected reports that the replica is outside the primary component;
	// only read-only transactions are available until it rejoins.
	ErrEjected = core.ErrEjected
	// ErrStopped reports that the replica or cluster has been closed.
	ErrStopped = core.ErrStopped
	// ErrTooManyRetries reports that a transaction exceeded MaxRetries.
	ErrTooManyRetries = core.ErrTooManyRetries
	// ErrNoSuchBox reports a read of a box absent from the snapshot.
	ErrNoSuchBox = stm.ErrNoSuchBox
	// ErrReadOnly reports a write inside a read-only transaction.
	ErrReadOnly = stm.ErrReadOnly
)

// Config parametrizes an in-process cluster (the simulated-network
// deployment used for development, testing and the paper's experiments; see
// cmd/alc-node for the TCP deployment).
//
// ALC's group commit has no settings: a write-set broadcast while the pipe is
// idle leaves at once, so an uncontended commit is still the paper's single
// URB, and later ones coalesce behind it under a fixed window and size caps.
// Every replica applies a delivered write-set before it handles the next
// delivery.
type Config struct {
	// Replicas is the cluster size. Required.
	Replicas int
	// Protocol selects ALC (default) or CERT.
	Protocol Protocol
	// ConflictClasses controls lease granularity: the number of conflict
	// classes data items hash into. Zero (default) gives one class per data
	// item, the paper's evaluation setting. Smaller values trade message
	// size for false sharing. Ignored by CERT.
	ConflictClasses int
	// DisableOptimisticFree turns off the §4.5(b) optimization (freeing
	// leases at optimistic delivery). On by default.
	DisableOptimisticFree bool
	// BloomFPRate sets CERT's read-set Bloom filter false-positive target
	// (D2STM's tunable extra abort rate). Zero sends exact read-sets.
	BloomFPRate float64
	// MaxRetries bounds transaction re-executions; 0 means unlimited.
	MaxRetries int
	// NetworkLatency is the simulated one-way message latency between
	// replicas. Default 500µs.
	NetworkLatency time.Duration
	// NetworkJitter adds uniform extra delay in [0, Jitter).
	NetworkJitter time.Duration
}

// Cluster is an in-process replicated STM deployment.
type Cluster struct {
	inner *cluster.Cluster
	reps  []*Replica
}

// NewCluster starts an in-process cluster and blocks until the initial view
// is installed on every replica.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		return nil, errors.New("alc: Config.Replicas must be positive")
	}
	latency := cfg.NetworkLatency
	if latency == 0 {
		latency = 500 * time.Microsecond
	}
	proto := core.Protocol(cfg.Protocol)
	if cfg.Protocol == 0 {
		proto = core.ProtocolALC
	}
	inner, err := cluster.New(cluster.Config{
		N: cfg.Replicas,
		Core: core.Config{
			Protocol: proto,
			Lease: lease.Config{
				Mapper:         lease.Mapper{NumClasses: cfg.ConflictClasses},
				OptimisticFree: !cfg.DisableOptimisticFree,
			},
			BloomFPRate: cfg.BloomFPRate,
			MaxRetries:  cfg.MaxRetries,
		},
		Net: memnet.Config{Latency: latency, Jitter: cfg.NetworkJitter},
		GCS: gcs.Config{
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      200 * time.Millisecond,
			FlushTimeout:      500 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{inner: inner}
	for i := 0; i < cfg.Replicas; i++ {
		c.reps = append(c.reps, &Replica{c: c, idx: i})
	}
	return c, nil
}

// Seed initializes the same boxes on every replica. Call before running
// transactions.
func (c *Cluster) Seed(values map[string]Value) error {
	for _, r := range c.inner.Replicas() {
		if err := r.Seed(values); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of replica slots.
func (c *Cluster) Size() int { return len(c.reps) }

// Replica returns the handle for replica i.
func (c *Cluster) Replica(i int) *Replica { return c.reps[i] }

// Crash fail-stops replica i (dependability testing).
func (c *Cluster) Crash(i int) { c.inner.Crash(i) }

// Restart rejoins a crashed replica through the group's state transfer.
func (c *Cluster) Restart(i int) error { return c.inner.Restart(i) }

// Partition splits the network into isolated groups of replica indices;
// replicas in a minority group are ejected from the primary component.
func (c *Cluster) Partition(groups ...[]int) { c.inner.Partition(groups...) }

// Heal removes all partitions; ejected replicas rejoin automatically.
func (c *Cluster) Heal() { c.inner.Heal() }

// WaitConverged blocks until all live replicas hold identical store state
// (the cluster must be quiescent).
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	return c.inner.WaitConverged(timeout)
}

// Stats aggregates protocol counters across live replicas.
func (c *Cluster) Stats() Stats { return statsFrom(c.inner.TotalStats()) }

// Close shuts the cluster down.
func (c *Cluster) Close() { c.inner.Close() }

// PreferredReplica returns the replica that should execute transactions over
// the given data items for maximal lease locality (the locality-aware
// load-balancing strategy sketched in the paper's future work, §6): routing
// every transaction on a data set to its deterministic owner keeps the lease
// resident, so commits take the zero-communication reuse path instead of
// rotating the lease. The mapping is rendezvous-hashed over the live
// replicas in the primary component (over every live replica when none is),
// so it remains stable across crashes and rejoins and never names a replica
// that cannot commit. Returns nil when no replica is alive.
func (c *Cluster) PreferredReplica(items ...string) *Replica {
	rep := c.inner.Preferred(items)
	if rep == nil {
		return nil
	}
	for _, r := range c.reps {
		if int(rep.ID()) == r.idx {
			return r
		}
	}
	return nil
}
