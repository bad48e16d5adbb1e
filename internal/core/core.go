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
	"slices"
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
	// DisablePiggybackCert turns off the §4.5 optimization (c), ALC's
	// lease-miss path: when no held lease covers a transaction, its read-
	// and write-set travel on the lease request itself and every replica
	// certifies and applies it as soon as the lease is established — 3
	// communication steps total, no separate write-set broadcast. It exists
	// only as the A/B control of the §4.5 step-count table and the
	// ablation-opt experiment.
	DisablePiggybackCert bool
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
	// Shards is ignored: a replica always runs one lease/broadcast group.
	//
	// Deprecated: kept only so benchmark/ compiles until its follow-up change
	// stops setting it.
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
	if c.Lease.Tracer == nil {
		c.Lease.Tracer = c.Tracer
	}
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
	// Piggybacked counts the commits whose write-set rode on their lease
	// request (§4.5(c), the lease-miss path); every other ALC commit went
	// through the coalescer, so Batch.BatchedTxns + Piggybacked == Commits.
	Piggybacked int64
	// CrossCommits is always 0.
	//
	// Deprecated: kept only so benchmark/ compiles until its follow-up change
	// drops the metric that reads it.
	CrossCommits  int64
	Lease         lease.Stats
	RetriesPerTxn metrics.IntDistSnapshot // aborts suffered per committed txn
	// CommitLatency is the end-to-end update-transaction latency: from the
	// start of the FIRST execution attempt to the durable commit, re-executions
	// included. (It used to restart on every retry, under-reporting exactly
	// the transactions contention hurts most.)
	CommitLatency metrics.HistogramSnapshot
	Batch         BatchStats
	Stages        StageStats
	Queues        QueueStats
	// STM is the local store's commit counters: applied write-sets,
	// commit-lock contention, GC work.
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
// Coalescer and URB are per committed write-set; Apply is per install. For
// an uncontended single-attempt workload the stage means sum to roughly the
// end-to-end CommitLatency mean (Apply overlaps the URB window and is
// excluded from that identity).
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
	// Apply is the store install (durability filter, log, store): one
	// observation per delivered URB batch, delta transfer, CERT commit and
	// §4.5(c) payload commit, local and remote.
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
	// GCS is the group-communication endpoint's queue depths.
	GCS gcs.QueueStats
}

// BatchStats describes the group-commit coalescer.
type BatchStats struct {
	// Batches is the number of write-set batches URB-broadcast; BatchedTxns
	// is the number of transactions they carried.
	Batches     int64
	BatchedTxns int64
	// BatchSize is the distribution of transactions per batch.
	BatchSize metrics.IntDistSnapshot
	// Flush counters, by trigger: idle pipe (no batch in flight — broadcast
	// immediately, zero added latency), the transaction and byte caps, the
	// 200µs window, and drain (previous batch self-delivered with entries
	// pending).
	FlushIdle, FlushSize, FlushBytes, FlushWindow, FlushDrain int64
}

// AbortRate returns aborts / (aborts + commits).
func (s Stats) AbortRate() float64 {
	total := s.Aborts + s.Commits
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Replica is one process of the replicated STM: the composition of the local
// multi-version STM, one GCS endpoint + lease manager, and the replication
// manager (this package).
type Replica struct {
	id    transport.ID
	cfg   Config
	store *stm.Store

	// The replica's one group: its GCS endpoint (sequencer, OAB and URB), its
	// lease manager, the coalescer that feeds the URB and the CERT validation
	// log.
	ep      *gcs.Endpoint
	lm      *lease.Manager
	coal    *coalescer
	certLog *certLog

	// Commit pipeline: the in-flight table serializes intersecting local
	// committers (see inflightTable for the lost-update invariant) and the
	// coalescer batches their write-set broadcasts.
	inflight *inflightTable

	// Waiters for commit outcomes, keyed by transaction ID.
	waitMu  sync.Mutex
	waiters map[stm.TxnID]commitWaiter

	// Durability tier: applied-frontier tracking + delta window (always),
	// WAL + snapshots (when configured with a directory).
	dur *durable
	// applyBatch is install's scratch batch, reused: every apply runs on the
	// dispatcher.
	applyBatch []stm.TxnWriteSet

	txnSeq  atomic.Uint64
	applies atomic.Int64 // applied write-sets since the last automatic GC
	primary atomic.Bool
	stopped atomic.Bool

	viewMu sync.Mutex
	view   gcs.View // the last view the handler installed
	// viewUnconfirmed is set from a view change until the first delivery in
	// the new view (confirmView). Dispatcher-only.
	viewUnconfirmed bool

	nCommits    metrics.Counter
	nAborts     [numAbortCauses]metrics.Counter
	nReadOnly   metrics.Counter
	nPiggyback  metrics.Counter
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
	r := &Replica{
		id:         tr.Self(),
		cfg:        cfg,
		store:      stm.NewStore(),
		certLog:    newCertLog(certLogSize),
		inflight:   newInflightTable(),
		waiters:    make(map[stm.TxnID]commitWaiter),
		retries:    metrics.NewIntDist(),
		batchSizes: metrics.NewIntDist(),
	}
	// Transaction IDs must be unique cluster-wide ACROSS replica
	// incarnations: a crashed replica that restarts must not reuse the IDs
	// of its previous life (version writer tags and the offline history
	// checker both rely on ID uniqueness). Starting the sequence at the
	// wall clock makes every incarnation's range disjoint.
	r.txnSeq.Store(uint64(time.Now().UnixNano()))
	r.primary.Store(!gcsCfg.Joining)

	// Durability: recover the store from snapshot + WAL (if a directory is
	// configured and holds state) before the endpoint exists — the recovered
	// frontier is what the joinReq will advertise for a delta transfer.
	dur, err := newDurable(cfg.Durability, r.store)
	if err != nil {
		return nil, err
	}
	r.dur = dur
	if !gcsCfg.Joining {
		// An initial member's store is complete by definition (empty or
		// seeded, never behind the group), so its frontier is advertisable.
		r.dur.markComplete()
		if cfg.Protocol == ProtocolALC {
			// Its lease table starts empty, at position 0: a new epoch.
			r.dur.openTOEpoch()
		}
	}
	r.coal = newCoalescer(r)

	gcsCfg.JoinFrontier = r.dur.advertise
	ep, err := gcs.NewEndpoint(tr, &gcsHandler{r}, gcsCfg)
	if err != nil {
		r.dur.close()
		return nil, fmt.Errorf("core: gcs endpoint: %w", err)
	}
	r.ep = ep
	r.lm = lease.NewManager(r.id, ep, cfg.Lease)
	r.lm.SetPayloadHandler(r.onEnabledPayload)
	// Start the dispatcher only after the replica is fully wired: upcalls may
	// fire immediately.
	ep.Start()
	return r, nil
}

// ID returns the replica's process ID.
func (r *Replica) ID() transport.ID { return r.id }

// Store exposes the local STM (for seeding and read-only access).
func (r *Replica) Store() *stm.Store { return r.store }

// LeaseManager exposes the lease manager (diagnostics).
func (r *Replica) LeaseManager() *lease.Manager { return r.lm }

// GCS exposes the group communication endpoint (diagnostics).
func (r *Replica) GCS() *gcs.Endpoint { return r.ep }

// HoldsLease reports whether every conflict class of the data-set is covered
// by an established lease (routing diagnostics).
func (r *Replica) HoldsLease(dataSet []string) bool { return r.lm.HoldsLease(dataSet) }

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
		Piggybacked:   r.nPiggyback.Value(),
		Lease:         r.lm.Stats(),
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
		},
	}
	s.Aborts = s.AbortCauses.Early + s.AbortCauses.Final + s.AbortCauses.Payload + s.AbortCauses.Deadlock
	s.Batch.Batches = s.Batch.BatchSize.Count()
	s.Stages = StageStats{
		Execution:     r.stageExec.Snapshot(),
		LeaseWait:     r.stageLeaseWait.Snapshot(),
		Certification: r.stageCert.Snapshot(),
		Coalescer:     r.stageCoalescer.Snapshot(),
		URB:           r.stageURB.Snapshot(),
		Apply:         r.stageApply.Snapshot(),
	}
	s.Queues.GCS = r.ep.QueueStats()
	s.Queues.CoalescerPending = r.qCoalescer.Value()
	s.Queues.LeaseWaiters = s.Lease.Waiting
	s.STM = r.store.Stats()
	s.WAL = r.dur.stats()
	return s
}

// WaitForView blocks until the replica has installed a view with at least n
// members (startup synchronization for tests and benchmarks).
func (r *Replica) WaitForView(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	for len(r.view.Members) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: view with %d members not installed within %v (have %v)",
				n, timeout, r.view)
		}
		r.viewMu.Unlock()
		time.Sleep(2 * time.Millisecond)
		r.viewMu.Lock()
	}
	return nil
}

// Close shuts the replica down.
func (r *Replica) Close() error {
	if r.stopped.Swap(true) {
		return nil
	}
	r.coal.stop()
	r.failAllWaiters(ErrStopped)
	r.inflight.reset()
	r.lm.Close()
	err := r.ep.Close()
	// After the dispatcher is gone nothing appends: final fsync.
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
// write-sets. Every apply, and so every caller, runs on the dispatcher:
// collections are serial by construction.
func (r *Replica) maybeGC() {
	if r.cfg.GCEvery <= 0 {
		return
	}
	if r.applies.Add(1)%int64(r.cfg.GCEvery) == 0 {
		r.store.GC()
	}
}

// committed is the one record of a commit, whichever exit it took (URB,
// §4.5(c) payload, CERT): it finishes the transaction, counts the commit and
// its retries, times it from the first attempt and reports it to the
// observer.
func (r *Replica) committed(txn *stm.Txn, txnStart time.Time, rep TxnReport) {
	txn.Finish()
	r.nCommits.Inc()
	r.retries.Observe(rep.Retries)
	r.latency.Observe(time.Since(txnStart))
	rep.Snapshot = txn.Snapshot()
	r.observeCommitted(rep)
}

// --- Commit outcome plumbing --------------------------------------------------

// commitWaiter tracks one local transaction awaiting its commit outcome.
// sentAt is stamped when the write-set leaves on the URB (markSent), which
// lets resolveWaiter attribute the broadcast→self-delivery window to the URB
// stage histogram; it stays zero for outcomes that involve no URB of their
// own (CERT, §4.5(c) piggyback). cls is the write-set's in-flight
// reservation, which the waiter owns: whatever resolves the waiter
// (self-delivery, a failed broadcast, an ejection, Close) releases it, once.
type commitWaiter struct {
	ch     chan error
	sentAt time.Time
	cls    []lease.ConflictClass
}

// outcomeChans recycles waiter channels. A channel goes back only once its
// one outcome has been received (awaitOutcome): it is empty, and the
// resolver that sent on it no longer holds it.
var outcomeChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// registerWaiter registers the outcome waiter of transaction id, owning the
// in-flight reservation cls (nil when it holds none).
func (r *Replica) registerWaiter(id stm.TxnID, cls []lease.ConflictClass) chan error {
	ch := outcomeChans.Get().(chan error)
	r.waitMu.Lock()
	r.waiters[id] = commitWaiter{ch: ch, cls: cls}
	r.waitMu.Unlock()
	return ch
}

// awaitOutcome receives a registered waiter's outcome and recycles its
// channel. The channel of a dropped waiter (dropWaiter) may still be sent on,
// so it is left to the collector.
func awaitOutcome(ch chan error) error {
	err := <-ch
	outcomeChans.Put(ch)
	return err
}

// markSent stamps the URB departure time on the waiters of entries.
func (r *Replica) markSent(entries []applyWSEntry, at time.Time) {
	r.waitMu.Lock()
	for _, e := range entries {
		if w, ok := r.waiters[e.TxnID]; ok {
			w.sentAt = at
			r.waiters[e.TxnID] = w
		}
	}
	r.waitMu.Unlock()
}

func (r *Replica) resolveWaiter(id stm.TxnID, err error) {
	r.waitMu.Lock()
	w, ok := r.waiters[id]
	delete(r.waiters, id)
	r.waitMu.Unlock()
	if ok {
		r.settle(w, err)
	}
}

// settle releases a removed waiter's reservation and hands it its outcome.
func (r *Replica) settle(w commitWaiter, err error) {
	if w.cls != nil {
		r.inflight.release(w.cls)
	}
	if err == nil && !w.sentAt.IsZero() {
		r.stageURB.Observe(time.Since(w.sentAt))
	}
	w.ch <- err
}

func (r *Replica) dropWaiter(id stm.TxnID) {
	r.waitMu.Lock()
	delete(r.waiters, id)
	r.waitMu.Unlock()
}

func (r *Replica) failAllWaiters(err error) {
	r.waitMu.Lock()
	for id, w := range r.waiters {
		delete(r.waiters, id)
		r.settle(w, err)
	}
	r.waitMu.Unlock()
}

// --- In-flight write-set tracking ----------------------------------------------

// dataClasses returns the conflict classes of a transaction's data set —
// every box it read or wrote — via the lease configuration's mapper (the
// classes leases are taken over), sorted and deduplicated.
func (r *Replica) dataClasses(rs stm.ReadSet, ws stm.WriteSet) []lease.ConflictClass {
	m := r.cfg.Lease.Mapper
	out := make([]lease.ConflictClass, 0, len(rs)+len(ws))
	for _, e := range rs {
		out = append(out, m.Class(e.Box))
	}
	for _, e := range ws {
		out = append(out, m.Class(e.Box))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// wsClasses returns the conflict classes of a write-set.
func (r *Replica) wsClasses(ws stm.WriteSet) []lease.ConflictClass {
	return r.dataClasses(nil, ws)
}

// alive reports whether the replica can still commit update transactions.
func (r *Replica) alive() bool {
	return r.primary.Load() && !r.stopped.Load()
}
