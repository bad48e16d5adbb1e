package alc

import (
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/stm"
)

// Replica is one process of the replicated STM.
type Replica struct {
	c   *Cluster
	idx int
}

// rep resolves the current underlying replica (it changes across
// crash/restart cycles).
func (r *Replica) rep() *core.Replica { return r.c.inner.Replica(r.idx) }

// ID returns the replica's index in the cluster.
func (r *Replica) ID() int { return r.idx }

// Alive reports whether the replica process is running (not crashed).
func (r *Replica) Alive() bool { return r.rep() != nil }

// InPrimary reports whether the replica is in the primary component.
func (r *Replica) InPrimary() bool {
	rep := r.rep()
	return rep != nil && rep.InPrimary()
}

// Atomic executes fn as a transaction and commits it through the cluster's
// replication protocol. fn re-executes transparently on conflicts, so it
// must be side-effect free apart from its transactional reads and writes;
// returning a non-nil error aborts the transaction and returns that error.
func (r *Replica) Atomic(fn func(*Tx) error) error {
	rep := r.rep()
	if rep == nil {
		return ErrStopped
	}
	return rep.Atomic(func(txn *stm.Txn) error { return fn(&Tx{txn: txn}) })
}

// AtomicRO executes fn as a read-only transaction: abort-free, wait-free,
// and available even outside the primary component (on a possibly stale
// snapshot).
func (r *Replica) AtomicRO(fn func(*Tx) error) error {
	rep := r.rep()
	if rep == nil {
		return ErrStopped
	}
	return rep.AtomicRO(func(txn *stm.Txn) error { return fn(&Tx{txn: txn}) })
}

// WaitForView blocks until the replica has installed a view with at least n
// members.
func (r *Replica) WaitForView(n int, timeout time.Duration) error {
	rep := r.rep()
	if rep == nil {
		return ErrStopped
	}
	return rep.WaitForView(n, timeout)
}

// Stats returns the replica's protocol counters.
func (r *Replica) Stats() Stats {
	rep := r.rep()
	if rep == nil {
		return Stats{}
	}
	return statsFrom(rep.Stats())
}

// HoldsLease reports whether the replica currently holds the leases covering
// the given data items (ALC diagnostics).
func (r *Replica) HoldsLease(items ...string) bool {
	rep := r.rep()
	return rep != nil && rep.HoldsLease(items)
}

// GC prunes old box versions unreachable by any active transaction,
// returning the number of versions discarded.
func (r *Replica) GC() int {
	rep := r.rep()
	if rep == nil {
		return 0
	}
	return rep.Store().GC()
}

// Tx is a transaction handle passed to Atomic and AtomicRO closures. A Tx is
// only valid for the duration of the closure invocation and must not be used
// from other goroutines.
type Tx struct {
	txn *stm.Txn
}

// Read returns the value of a box as of the transaction's snapshot.
func (t *Tx) Read(box string) (Value, error) { return t.txn.Read(box) }

// ReadInt reads a box holding an int.
func (t *Tx) ReadInt(box string) (int, error) {
	v, err := t.txn.Read(box)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int)
	if !ok {
		return 0, &TypeError{Box: box, Value: v}
	}
	return n, nil
}

// Write buffers a new value for a box; the box is created at commit if it
// does not exist. Returns ErrReadOnly inside AtomicRO.
func (t *Tx) Write(box string, v Value) error { return t.txn.Write(box, v) }

// Snapshot returns the commit timestamp the transaction reads at.
func (t *Tx) Snapshot() int64 { return t.txn.Snapshot() }

// TypeError reports a typed read of a box holding a different type.
type TypeError struct {
	Box   string
	Value Value
}

func (e *TypeError) Error() string {
	return "alc: box " + e.Box + " does not hold the requested type"
}

// Stats is a snapshot of protocol counters.
type Stats struct {
	// Commits is the number of committed update transactions.
	Commits int64
	// Aborts is the number of certification failures (each followed by a
	// transparent re-execution).
	Aborts int64
	// ReadOnly is the number of completed read-only transactions.
	ReadOnly int64
	// LeaseRequests is the number of lease requests broadcast (ALC).
	LeaseRequests int64
	// LeaseReuses counts commits served by an already-held lease: the
	// zero-communication fast path (ALC).
	LeaseReuses int64
	// LeaseHandoffs counts leases released to other replicas (ALC).
	LeaseHandoffs int64
	// RetriesPerTxn is the distribution of aborts suffered per committed
	// transaction.
	RetriesPerTxn metrics.IntDistSnapshot
	// CommitLatency is the distribution of commit-phase durations.
	CommitLatency metrics.HistogramSnapshot
	// Batch describes the group-commit coalescer (ALC).
	Batch core.BatchStats
	// Stages decomposes the update-commit path into per-stage latency
	// histograms: execution, lease wait, certification, coalescer residency,
	// URB broadcast-to-delivery, and apply.
	Stages core.StageStats
	// Queues samples the instantaneous depths of the commit pipeline's
	// queues (coalescer backlog, blocked lease waiters, and the
	// group-communication endpoint's internal queues).
	Queues core.QueueStats
}

// AbortRate returns Aborts / (Aborts + Commits).
func (s Stats) AbortRate() float64 {
	total := s.Aborts + s.Commits
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

func statsFrom(s core.Stats) Stats {
	return Stats{
		Commits:       s.Commits,
		Aborts:        s.Aborts,
		ReadOnly:      s.ReadOnly,
		LeaseRequests: s.Lease.Requested,
		LeaseReuses:   s.Lease.Reused,
		LeaseHandoffs: s.Lease.Freed,
		RetriesPerTxn: s.RetriesPerTxn,
		CommitLatency: s.CommitLatency,
		Batch:         s.Batch,
		Stages:        s.Stages,
		Queues:        s.Queues,
	}
}
