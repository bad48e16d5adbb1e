// Package core implements the paper's primary contribution: the replication
// managers that certify transactions cluster-wide.
//
// Two protocols are provided:
//
//   - ProtocolALC — Asynchronous Lease Certification (Algorithm 1 plus the
//     §4.5 optimizations). A transaction executes locally; at commit time the
//     replica establishes an asynchronous lease on the transaction's conflict
//     classes (one OAB, skipped entirely when the lease is already held),
//     validates locally, and disseminates only the write-set through a single
//     causally ordered Uniform Reliable Broadcast. A transaction that fails
//     validation re-executes while the lease is retained, so a remote
//     conflict can abort it at most once.
//
//   - ProtocolCert — the D2STM-style certification baseline (CERT in §5): at
//     commit time the transaction's Bloom-filter-encoded read-set and its
//     write-set are atomically broadcast; every replica validates it
//     deterministically in the total order and applies the write-set on
//     success. No bound exists on the number of aborts.
//
// Both protocols sit on the same substrates: the multi-version STM
// (internal/stm) and the view-synchronous GCS (internal/gcs).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
)

// Protocol selects the replication scheme.
type Protocol int

const (
	// ProtocolALC is Asynchronous Lease Certification (the paper's
	// contribution).
	ProtocolALC Protocol = iota + 1
	// ProtocolCert is the atomic-broadcast certification baseline (D2STM).
	ProtocolCert
)

func (p Protocol) String() string {
	switch p {
	case ProtocolALC:
		return "ALC"
	case ProtocolCert:
		return "CERT"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Errors returned by Atomic.
var (
	// ErrEjected is returned when the replica has been excluded from the
	// primary component: update transactions cannot commit (read-only
	// transactions remain available).
	ErrEjected = errors.New("core: replica ejected from primary component")
	// ErrStopped is returned after Close.
	ErrStopped = errors.New("core: replica stopped")
	// ErrTooManyRetries is returned when a transaction exceeded the
	// configured retry budget.
	ErrTooManyRetries = errors.New("core: transaction exceeded retry budget")
)

// Config parametrizes a replica.
type Config struct {
	// Protocol selects ALC or CERT. Default: ALC.
	Protocol Protocol
	// Lease configures the lease manager (conflict-class granularity and
	// the §4.5(b) optimistic-free / §4.4 deadlock-detection switches).
	Lease lease.Config
	// PiggybackCert enables the §4.5 optimization (c): when a lease must be
	// acquired, the transaction's read- and write-set travel on the lease
	// request itself and every replica certifies and applies it as soon as
	// the lease is established — 3 communication steps total, no separate
	// write-set broadcast.
	PiggybackCert bool
	// BloomFPRate is the target false-positive rate of the CERT read-set
	// encoding (D2STM's tunable extra abort rate). Zero or negative sends
	// exact read-sets.
	BloomFPRate float64
	// MaxRetries bounds re-executions per transaction; 0 means unlimited.
	MaxRetries int
	// GCEvery prunes box version histories after every N applied
	// write-sets (versions unreachable by any active snapshot are
	// discarded). Zero selects the default of 4096; negative disables
	// automatic GC (Store.GC can still be called manually).
	GCEvery int
	// Batch tunes the group-commit coalescer and the parallel apply stage
	// (ALC only; CERT applies in the total order, on the dispatcher).
	Batch BatchConfig
	// Shards partitions the conflict classes across this many independent
	// lease/broadcast groups, each with its own sequencer, OAB/URB instance
	// and lease manager, multiplexed over the replica's single transport
	// (shard ID in the envelope). Transactions whose data-set maps to one
	// shard commit through that group exactly as an unsharded replica would;
	// transactions spanning shards commit through the cross-shard
	// certification path (per-shard write-set portions under per-shard
	// leases, acquired in ascending shard order). Default 1: a single group,
	// the one-shard case of the same driver, on the raw transport (no mux).
	Shards int
	// Durability configures the write-ahead log + snapshot tier and the
	// delta state-transfer window (see DurabilityConfig). The zero value
	// keeps the replica memory-only but still able to serve deltas.
	Durability DurabilityConfig
	// Tracer, when non-nil, receives the replica's protocol events:
	// per-transaction lifecycle (invoke/commit/terminal failure, consumed by
	// the offline history checker via a trace.Sink) and lease-manager state
	// transitions. When Lease.Tracer is unset it inherits this tracer.
	Tracer *trace.Tracer
}

func (c *Config) fillDefaults() {
	if c.Protocol == 0 {
		c.Protocol = ProtocolALC
	}
	if c.GCEvery == 0 {
		c.GCEvery = 4096
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Lease.Tracer == nil {
		c.Lease.Tracer = c.Tracer
	}
	c.Batch.fillDefaults()
}

// Stats is a point-in-time snapshot of a replica's protocol counters. All
// fields are immutable values: safe to retain and read while the replica
// keeps committing.
type Stats struct {
	Commits int64
	Aborts  int64 // certification/validation failures (before retry)
	// AbortCauses breaks Aborts down by what aborted the attempt; the four
	// causes sum to Aborts.
	AbortCauses AbortCauses
	ReadOnly    int64
	MigratedIn  int64 // transactions shipped here by a remote router (SubmitMigrated)
	// Shards is the number of shard groups; CrossCommits counts committed
	// transactions whose data-set spanned more than one of them.
	Shards        int
	CrossCommits  int64
	Lease         lease.Stats             // summed across shard groups
	RetriesPerTxn metrics.IntDistSnapshot // aborts suffered per committed txn
	// CommitLatency is the end-to-end update-transaction latency: from the
	// start of the FIRST execution attempt to the durable commit, re-executions
	// included. (It used to restart on every retry, under-reporting exactly
	// the transactions contention hurts most.)
	CommitLatency metrics.HistogramSnapshot
	Batch         BatchStats
	Stages        StageStats
	Queues        QueueStats
	// STM is the local store's commit-pipeline counters: applied write-sets,
	// commit-stripe contention, clock-publication waits, GC work.
	STM stm.Stats
	// WAL is the durability tier: log appends, fsyncs, snapshots, recovery
	// replay, and delta/full state transfers in both directions.
	WAL WALStats
}

// AbortCauses counts aborted attempts by cause.
type AbortCauses struct {
	// Early: the first attempt's cheap local validation found stale reads
	// before any lease or broadcast was paid for.
	Early int64
	// Final: the commit-time validation failed — ALC's validation under the
	// established leases, CERT's certification in the total order.
	Final int64
	// Payload: a §4.5(c) piggybacked read/write-set failed certification at
	// lease establishment.
	Payload int64
	// Deadlock: a lease acquisition made the transaction a deadlock victim.
	Deadlock int64
}

// abortCause indexes the replica's per-cause abort counters (Replica.nAborts):
// every aborted attempt is counted under exactly one.
type abortCause int

const (
	abortEarly abortCause = iota
	abortFinal
	abortPayload
	abortDeadlock
	numAbortCauses
)

// StageStats decomposes the update-commit path into its pipeline stages, one
// latency histogram per stage. Execution, LeaseWait and Certification are
// per-attempt (a transaction retried N times contributes N+1 observations);
// Coalescer and URB are per committed write-set; Apply is per delivered
// batch. For an uncontended single-attempt workload the stage means sum to
// roughly the end-to-end CommitLatency mean (Apply overlaps the URB window
// and is excluded from that identity).
type StageStats struct {
	// Execution is the transactional run of fn: store.Begin through fn's
	// return, per attempt.
	Execution metrics.HistogramSnapshot
	// LeaseWait is the lease-establishment block (ALC only): escalation,
	// replacement, reuse or acquisition — zero-communication reuse shows up
	// as near-zero observations, a cold acquisition as a full OAB round.
	LeaseWait metrics.HistogramSnapshot
	// Certification is the per-attempt validation step: for ALC the
	// in-flight reservation plus the read-set conflict check; for CERT the
	// full atomic-broadcast round up to the deterministic verdict; for the
	// §4.5(c) piggyback the wait from lease enablement to the verdict.
	Certification metrics.HistogramSnapshot
	// Coalescer is a write-set's residency in the group-commit coalescer:
	// enqueue to batch broadcast (zero on the idle-pipe fast path).
	Coalescer metrics.HistogramSnapshot
	// URB is the broadcast-to-self-delivery time of the write-set (batch):
	// the paper's single URB commit step, as locally observable.
	URB metrics.HistogramSnapshot
	// Apply is the write-set application: one observation per delivered
	// batch (local and remote), through the store's striped commit pipeline.
	Apply metrics.HistogramSnapshot
}

// QueueStats samples the instantaneous depths of the commit pipeline's
// queues (gauges: they move both ways).
type QueueStats struct {
	// CoalescerPending is the number of write-sets waiting in the coalescer
	// for the next batch.
	CoalescerPending int64
	// LeaseWaiters is the number of lease acquisitions currently blocked
	// waiting for enablement.
	LeaseWaiters int64
	// ApplyBacklog is the number of delivered apply tasks (batches) not yet
	// fully applied.
	ApplyBacklog int64
	// GCS is the group-communication endpoint's queue depths.
	GCS gcs.QueueStats
}

// BatchStats describes the group-commit coalescer and the parallel apply
// stage.
type BatchStats struct {
	// Batches is the number of write-set batches URB-broadcast; BatchedTxns
	// is the number of transactions they carried.
	Batches     int64
	BatchedTxns int64
	// BatchSize is the distribution of transactions per batch.
	BatchSize metrics.IntDistSnapshot
	// Flush counters, by trigger: idle pipe (no batch in flight — broadcast
	// immediately, zero added latency), the MaxTxns/maxBatchBytes caps, the
	// MaxDelay window, drain (previous batch self-delivered with entries
	// pending), and cross (a cross-shard portion forced the queue out).
	FlushIdle, FlushSize, FlushBytes, FlushWindow, FlushDrain, FlushCross int64
	// ApplyTasks counts apply-stage executions (batches, not transactions);
	// ApplyMaxParallel is the high-watermark of concurrently running apply
	// workers.
	ApplyTasks       int64
	ApplyMaxParallel int64
}

// AbortRate returns aborts / (aborts + commits).
func (s Stats) AbortRate() float64 {
	total := s.Aborts + s.Commits
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// shardState is one shard group's slice of the replica: its own GCS endpoint
// (its own sequencer/OAB/URB instance), lease manager, group-commit
// coalescer, CERT validation log and TO-lane commit clock. The store, the
// in-flight table, the waiter map and the durability tier stay replica-wide:
// a box belongs to exactly one shard (by its conflict class), so per-box
// apply order is still owned by a single group channel.
type shardState struct {
	r       *Replica
	idx     int
	ep      *gcs.Endpoint
	lm      *lease.Manager
	coal    *coalescer
	certLog *certLog
	// toOrd is the shard's totally-ordered commit clock: the count of valid
	// TO-delivered write-sets (CERT certifications and §4.5(c) piggybacked
	// payloads) applied on this shard. Validation is deterministic, so the
	// count is identical at every replica — unlike the store's commit
	// timestamp, which with several shards interleaves all groups' applies
	// in a replica-local order.
	toOrd   atomic.Int64
	primary atomic.Bool
	view    gcs.View // guarded by r.viewMu
}

// advanceTO lifts the TO clock to at least ord (delta installs replay TO
// entries with their original ordinals).
func (s *shardState) advanceTO(ord int64) {
	for {
		cur := s.toOrd.Load()
		if ord <= cur || s.toOrd.CompareAndSwap(cur, ord) {
			return
		}
	}
}

// Replica is one process of the replicated STM: the composition of the local
// multi-version STM, one GCS endpoint + lease manager per shard group, and
// the replication manager (this package).
type Replica struct {
	id    transport.ID
	cfg   Config
	store *stm.Store

	// shards holds one group slice per shard; shard 0 is the only one when
	// sharding is disabled. mux is nil for a single shard (the raw transport
	// is used directly, envelope-free).
	shards []*shardState
	mux    *transport.Mux

	// Commit pipeline: the striped in-flight table serializes intersecting
	// local committers (see inflightTable for the lost-update invariant),
	// the per-shard coalescers batch their write-set broadcasts, and the
	// scheduler applies delivered write-sets on a worker pool.
	inflight *inflightTable
	sched    *applyScheduler

	// seqMu makes {TxnID allocation; write-set enqueue} atomic per replica,
	// so every shard channel carries this replica's write-sets in ascending
	// Seq order: without it two concurrent local committers can allocate
	// seqs 6 and 7 but enqueue 7 first, and the per-writer frontier filter at
	// the receivers silently drops 6. For a cross-shard commit it
	// additionally keeps all of one transaction's per-shard portions adjacent
	// in every channel's sender order.
	seqMu sync.Mutex

	// Waiters for commit outcomes, keyed by transaction ID.
	waitMu  sync.Mutex
	waiters map[stm.TxnID]*commitWaiter

	// In-flight cross-shard broadcast groups. An ejection must Fail them:
	// a group with a part dropped by the ejected endpoint can never
	// complete, and its sibling parts would head-of-line-block the healthy
	// shards' outboxes forever.
	groupMu sync.Mutex
	groups  map[*gcs.Group]struct{}

	// Durability tier: per-shard applied-frontier tracking + delta window
	// (always), WAL + snapshots (when configured with a directory).
	dur *durable

	txnSeq  atomic.Uint64
	applies atomic.Int64 // applied write-sets since the last automatic GC
	gcMu    sync.Mutex   // keeps version-history collections serial
	primary atomic.Bool  // conjunction over the shard groups
	stopped atomic.Bool

	viewMu   sync.Mutex
	viewCond *sync.Cond

	nCommits    metrics.Counter
	nAborts     [numAbortCauses]metrics.Counter
	nReadOnly   metrics.Counter
	nMigratedIn metrics.Counter
	nCross      metrics.Counter // committed cross-shard transactions
	retries     *metrics.IntDist
	latency     metrics.Histogram // end-to-end, first attempt to commit
	batchSizes  *metrics.IntDist
	batchedTxns metrics.Counter
	flushCount  [numFlushReasons]metrics.Counter

	// Per-stage latency histograms (see StageStats for what each covers).
	stageExec      metrics.Histogram
	stageLeaseWait metrics.Histogram
	stageCert      metrics.Histogram
	stageCoalescer metrics.Histogram
	stageURB       metrics.Histogram
	stageApply     metrics.Histogram
	qCoalescer     metrics.Gauge
}

// NewReplica wires a replica over the given transport. The GCS endpoint is
// created internally; gcsCfg.Members defines the group.
func NewReplica(tr transport.Transport, cfg Config, gcsCfg gcs.Config) (*Replica, error) {
	cfg.fillDefaults()
	if cfg.Protocol == ProtocolCert && cfg.Shards > 1 {
		// CERT validates every transaction against ONE total order of
		// certification messages; its Bloom read-set check does not decompose
		// into per-shard votes. Refuse the configuration instead of silently
		// running a protocol whose correctness argument no longer holds.
		return nil, fmt.Errorf("core: ProtocolCert is single-shard (Shards=%d); sharding requires ProtocolALC", cfg.Shards)
	}
	r := &Replica{
		id:         tr.Self(),
		cfg:        cfg,
		store:      stm.NewStore(),
		inflight:   newInflightTable(),
		waiters:    make(map[stm.TxnID]*commitWaiter),
		groups:     make(map[*gcs.Group]struct{}),
		retries:    metrics.NewIntDist(),
		batchSizes: metrics.NewIntDist(),
	}
	// Transaction IDs must be unique cluster-wide ACROSS replica
	// incarnations: a crashed replica that restarts must not reuse the IDs
	// of its previous life (version writer tags and the offline history
	// checker both rely on ID uniqueness). Starting the sequence at the
	// wall clock makes every incarnation's range disjoint.
	r.txnSeq.Store(uint64(time.Now().UnixNano()))
	r.viewCond = sync.NewCond(&r.viewMu)
	r.primary.Store(!gcsCfg.Joining)

	// Durability: recover the store from snapshot + WAL (if a directory is
	// configured and holds state) before any endpoint exists — the recovered
	// per-shard frontiers are what the joinReqs will advertise for delta
	// transfers.
	dur, err := newDurable(cfg.Durability, r.store, cfg.Shards)
	if err != nil {
		return nil, err
	}
	r.dur = dur
	r.sched = newApplyScheduler(cfg.Batch.ApplyWorkers, cfg.Shards)
	if !gcsCfg.Joining {
		// An initial member's store is complete by definition (empty or
		// seeded, never behind the group), so its frontier is advertisable.
		r.dur.markComplete()
	}

	// One GCS endpoint per shard group. A single shard uses the raw transport
	// directly — no envelope, and no mux pump-goroutine hop on every message;
	// several shards each get a muxed sub-transport, with the shard ID
	// carried in a transport.ShardEnvelope.
	if cfg.Shards > 1 {
		r.mux = transport.NewMux(tr, cfg.Shards)
	}
	r.shards = make([]*shardState, cfg.Shards)
	for i := range r.shards {
		s := &shardState{r: r, idx: i, certLog: newCertLog(certLogSize)}
		s.primary.Store(!gcsCfg.Joining)
		s.toOrd.Store(toFrontierOf(r.dur.advertise(i))) // the recovered TO commit clock
		s.coal = newCoalescer(r, s, cfg.Batch)
		shardTr := tr
		if r.mux != nil {
			shardTr = r.mux.Sub(i)
		}
		shardCfg := gcsCfg
		idx := i
		shardCfg.JoinFrontier = func() map[transport.ID]uint64 { return r.dur.advertise(idx) }
		ep, err := gcs.NewEndpoint(shardTr, &shardHandler{r: r, s: s}, shardCfg)
		if err != nil {
			for _, prev := range r.shards[:i] {
				prev.ep.Close()
			}
			if r.mux != nil {
				r.mux.Close()
			}
			r.sched.close()
			r.dur.close()
			return nil, fmt.Errorf("core: gcs endpoint (shard %d): %w", i, err)
		}
		s.ep = ep
		s.lm = lease.NewManager(r.id, ep, cfg.Lease)
		if cfg.PiggybackCert {
			shard := s
			s.lm.SetPayloadHandler(func(req *lease.Request) { r.onEnabledPayload(shard, req) })
		}
		r.shards[i] = s
	}
	// Start the dispatchers only after the replica is fully wired: upcalls
	// may fire immediately.
	for _, s := range r.shards {
		s.ep.Start()
	}
	return r, nil
}

// ID returns the replica's process ID.
func (r *Replica) ID() transport.ID { return r.id }

// Store exposes the local STM (for seeding and read-only access).
func (r *Replica) Store() *stm.Store { return r.store }

// LeaseManager exposes shard group 0's lease manager (diagnostics; with a
// single shard, the replica's only one).
func (r *Replica) LeaseManager() *lease.Manager { return r.shards[0].lm }

// GCS exposes shard group 0's communication endpoint (diagnostics).
func (r *Replica) GCS() *gcs.Endpoint { return r.shards[0].ep }

// Shards returns the number of shard groups.
func (r *Replica) Shards() int { return len(r.shards) }

// HoldsLease reports whether every conflict class of the data-set is covered
// by an established lease on its home shard group (routing diagnostics).
func (r *Replica) HoldsLease(dataSet []string) bool {
	if len(r.shards) == 1 {
		return r.shards[0].lm.HoldsLease(dataSet)
	}
	for sh, items := range r.itemsByShard(dataSet) {
		if len(items) > 0 && !r.shards[sh].lm.HoldsLease(items) {
			return false
		}
	}
	return true
}

// InPrimary reports whether the replica is in the primary component.
func (r *Replica) InPrimary() bool { return r.primary.Load() }

// Stats returns an immutable snapshot of the replica's counters.
func (r *Replica) Stats() Stats {
	s := Stats{
		Commits: r.nCommits.Value(),
		AbortCauses: AbortCauses{
			Early:    r.nAborts[abortEarly].Value(),
			Final:    r.nAborts[abortFinal].Value(),
			Payload:  r.nAborts[abortPayload].Value(),
			Deadlock: r.nAborts[abortDeadlock].Value(),
		},
		ReadOnly:      r.nReadOnly.Value(),
		MigratedIn:    r.nMigratedIn.Value(),
		Shards:        len(r.shards),
		CrossCommits:  r.nCross.Value(),
		RetriesPerTxn: r.retries.Freeze(),
		CommitLatency: r.latency.Snapshot(),
		Batch: BatchStats{
			BatchedTxns: r.batchedTxns.Value(),
			BatchSize:   r.batchSizes.Freeze(),
			FlushIdle:   r.flushCount[flushIdle].Value(),
			FlushSize:   r.flushCount[flushSize].Value(),
			FlushBytes:  r.flushCount[flushBytes].Value(),
			FlushWindow: r.flushCount[flushWindow].Value(),
			FlushDrain:  r.flushCount[flushDrain].Value(),
			FlushCross:  r.flushCount[flushCross].Value(),
		},
	}
	s.Aborts = s.AbortCauses.Early + s.AbortCauses.Final + s.AbortCauses.Payload + s.AbortCauses.Deadlock
	s.Batch.Batches = s.Batch.BatchSize.Count()
	tasks, maxPar := r.sched.stats()
	s.Batch.ApplyTasks = tasks
	s.Batch.ApplyMaxParallel = int64(maxPar)
	s.Queues.ApplyBacklog = int64(r.sched.backlog())
	s.Stages = StageStats{
		Execution:     r.stageExec.Snapshot(),
		LeaseWait:     r.stageLeaseWait.Snapshot(),
		Certification: r.stageCert.Snapshot(),
		Coalescer:     r.stageCoalescer.Snapshot(),
		URB:           r.stageURB.Snapshot(),
		Apply:         r.stageApply.Snapshot(),
	}
	for _, sh := range r.shards {
		ls := sh.lm.Stats()
		s.Lease.Requested += ls.Requested
		s.Lease.Reused += ls.Reused
		s.Lease.Acquired += ls.Acquired
		s.Lease.Stolen += ls.Stolen
		s.Lease.Freed += ls.Freed
		s.Lease.Deadlocks += ls.Deadlocks
		s.Lease.Waiting += ls.Waiting
		qs := sh.ep.QueueStats()
		s.Queues.GCS.Outbox += qs.Outbox
		s.Queues.GCS.URBPending += qs.URBPending
		s.Queues.GCS.URBRetained += qs.URBRetained
		s.Queues.GCS.SeqQueue += qs.SeqQueue
		s.Queues.GCS.Dispatch += qs.Dispatch
	}
	s.Queues.CoalescerPending = r.qCoalescer.Value()
	s.Queues.LeaseWaiters = s.Lease.Waiting
	s.STM = r.store.Stats()
	s.WAL = r.dur.stats()
	return s
}

// WaitForView blocks until every shard group has installed a view with at
// least n members (startup synchronization for tests and benchmarks).
func (r *Replica) WaitForView(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	for {
		min := len(r.shards[0].view.Members)
		for _, s := range r.shards[1:] {
			if len(s.view.Members) < min {
				min = len(s.view.Members)
			}
		}
		if min >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: view with %d members not installed on every shard within %v (have %v)",
				n, timeout, r.shards[0].view)
		}
		r.viewMu.Unlock()
		time.Sleep(2 * time.Millisecond)
		r.viewMu.Lock()
	}
}

// Close shuts the replica down.
func (r *Replica) Close() error {
	if r.stopped.Swap(true) {
		return nil
	}
	for _, s := range r.shards {
		s.coal.stop()
	}
	r.failGroups()
	r.failAllWaiters(ErrStopped)
	r.inflight.reset()
	for _, s := range r.shards {
		s.lm.Close()
	}
	var err error
	for _, s := range r.shards {
		if e := s.ep.Close(); e != nil && err == nil {
			err = e
		}
	}
	if r.mux != nil {
		r.mux.Close()
	}
	// The dispatchers have exited: no further submissions. Wait for the
	// workers to finish the queue and terminate.
	r.sched.close()
	// After dispatchers and workers are gone nothing appends: final fsync.
	r.dur.close()
	return err
}

// Seed initializes boxes directly in the local store, before the replica
// starts processing transactions. Every replica must be seeded identically.
// With durability enabled, the seeded state becomes the baseline snapshot:
// seeded boxes are created outside any write-set, so the WAL alone could
// never reconstruct them after a crash.
func (r *Replica) Seed(values map[string]stm.Value) error {
	for id, v := range values {
		if _, err := r.store.CreateBox(id, v); err != nil {
			return err
		}
	}
	if len(values) > 0 {
		r.dur.snapshot(r.store)
	}
	return nil
}

// nextTxnID allocates a cluster-unique transaction identifier.
func (r *Replica) nextTxnID() stm.TxnID {
	return stm.TxnID{Replica: r.id, Seq: r.txnSeq.Add(1)}
}

// maybeGC prunes version histories after every cfg.GCEvery applied
// write-sets. With the parallel apply stage this can run concurrently with
// other applies: that is safe — applies only prepend versions newer than the
// GC watermark, and gcMu keeps collections themselves serial — but only one
// collection runs at a time (TryLock) so workers never queue up on GC.
func (r *Replica) maybeGC() {
	if r.cfg.GCEvery <= 0 {
		return
	}
	if r.applies.Add(1)%int64(r.cfg.GCEvery) == 0 {
		if r.gcMu.TryLock() {
			r.store.GC()
			r.gcMu.Unlock()
		}
	}
}

// --- Commit outcome plumbing --------------------------------------------------

// commitWaiter tracks one local transaction awaiting its commit outcome.
// sentAt is stamped when the write-set leaves on the URB (markSent), which
// lets resolveWaiter attribute the broadcast→self-delivery window to the URB
// stage histogram; it stays zero for outcomes that involve no URB of their
// own (CERT, §4.5(c) piggyback). A cross-shard commit registers with
// remaining = number of per-shard write-set portions: the outcome fires when
// the last portion self-delivers (or on the first error).
type commitWaiter struct {
	ch        chan error
	sentAt    time.Time
	remaining int
}

func (r *Replica) registerWaiter(id stm.TxnID) chan error {
	return r.registerWaiterN(id, 1)
}

func (r *Replica) registerWaiterN(id stm.TxnID, n int) chan error {
	w := &commitWaiter{ch: make(chan error, 1), remaining: n}
	r.waitMu.Lock()
	r.waiters[id] = w
	r.waitMu.Unlock()
	return w.ch
}

// markSent stamps the URB departure time on the given waiters.
func (r *Replica) markSent(ids []stm.TxnID, at time.Time) {
	r.waitMu.Lock()
	for _, id := range ids {
		if w, ok := r.waiters[id]; ok {
			w.sentAt = at
		}
	}
	r.waitMu.Unlock()
}

func (r *Replica) resolveWaiter(id stm.TxnID, err error) {
	r.waitMu.Lock()
	w, ok := r.waiters[id]
	if ok {
		if err == nil {
			w.remaining--
			if w.remaining > 0 {
				// More per-shard portions outstanding: not resolved yet.
				r.waitMu.Unlock()
				return
			}
		}
		delete(r.waiters, id)
	}
	r.waitMu.Unlock()
	if ok {
		if err == nil && !w.sentAt.IsZero() {
			r.stageURB.Observe(time.Since(w.sentAt))
		}
		w.ch <- err
	}
}

func (r *Replica) dropWaiter(id stm.TxnID) {
	r.waitMu.Lock()
	delete(r.waiters, id)
	r.waitMu.Unlock()
}

// registerGroup tracks an in-flight cross-shard broadcast group so an
// ejection can Fail it (see the groups field).
func (r *Replica) registerGroup(g *gcs.Group) {
	r.groupMu.Lock()
	r.groups[g] = struct{}{}
	r.groupMu.Unlock()
}

func (r *Replica) unregisterGroup(g *gcs.Group) {
	r.groupMu.Lock()
	delete(r.groups, g)
	r.groupMu.Unlock()
}

// failGroups cancels every in-flight cross-shard group. Idempotent per
// group, and a no-op on groups that already transmitted (their portions are
// in the URB pending sets and resolve through delivery or view change).
func (r *Replica) failGroups() {
	r.groupMu.Lock()
	gs := make([]*gcs.Group, 0, len(r.groups))
	for g := range r.groups {
		gs = append(gs, g)
	}
	r.groupMu.Unlock()
	for _, g := range gs {
		g.Fail()
	}
}

func (r *Replica) failAllWaiters(err error) {
	r.waitMu.Lock()
	for id, w := range r.waiters {
		delete(r.waiters, id)
		w.ch <- err
	}
	r.waitMu.Unlock()
}

// --- In-flight write-set tracking ----------------------------------------------

// classes maps box IDs to their conflict classes via the lease
// configuration's mapper (the same classes leases are taken over).
func (r *Replica) classes(ids []string) []lease.ConflictClass {
	return r.cfg.Lease.Mapper.Classes(ids)
}

// wsClasses returns the conflict classes of a write-set.
func (r *Replica) wsClasses(ws stm.WriteSet) []lease.ConflictClass {
	boxes := make([]string, len(ws))
	for i, e := range ws {
		boxes[i] = e.Box
	}
	return r.classes(boxes)
}

// alive reports whether the replica can still commit update transactions.
func (r *Replica) alive() bool {
	return r.primary.Load() && !r.stopped.Load()
}

// recomputePrimary refreshes the replica-wide primary flag: updates can
// commit only while every shard group keeps the replica in its primary
// component.
func (r *Replica) recomputePrimary() {
	p := true
	for _, s := range r.shards {
		if !s.primary.Load() {
			p = false
			break
		}
	}
	r.primary.Store(p)
}

// --- Shard partitioning ---------------------------------------------------------

// shardOf maps a box ID to its home shard group, through its conflict class
// (the same pure class→shard function every replica and the offline checker
// use; see lease.ShardOf).
func (r *Replica) shardOf(id string) int {
	return lease.ShardOf(r.cfg.Lease.Mapper.ClassOf(id), len(r.shards))
}

// itemsByShard partitions item IDs by home shard: index = shard, nil slices
// for untouched shards.
func (r *Replica) itemsByShard(ids []string) [][]string {
	out := make([][]string, len(r.shards))
	for _, id := range ids {
		sh := r.shardOf(id)
		out[sh] = append(out[sh], id)
	}
	return out
}

// involvedShards lists, ascending, the shards with a non-empty partition.
func involvedShards(byShard [][]string) []int {
	var out []int
	for sh, items := range byShard {
		if len(items) > 0 {
			out = append(out, sh)
		}
	}
	return out
}

// wsByShard splits a write-set into per-shard portions. Conflict classes
// partition exactly by shard, so the split is lossless and the portions are
// disjoint in classes — each can travel on its own group channel without any
// cross-group ordering constraint.
func (r *Replica) wsByShard(ws stm.WriteSet) []stm.WriteSet {
	out := make([]stm.WriteSet, len(r.shards))
	for _, e := range ws {
		sh := r.shardOf(e.Box)
		out[sh] = append(out[sh], e)
	}
	return out
}
