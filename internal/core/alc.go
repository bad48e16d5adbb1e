package core

import (
	"errors"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
)

// Atomic executes fn as a transaction and commits it through the configured
// replication protocol, transparently re-executing it on certification
// conflicts. fn may be invoked multiple times and must be idempotent apart
// from its transactional reads and writes. A non-nil error from fn aborts
// the transaction and is returned verbatim.
func (r *Replica) Atomic(fn func(*stm.Txn) error) error {
	r.observeInvoked()
	var err error
	switch r.cfg.Protocol {
	case ProtocolCert:
		err = r.atomicCert(fn)
	default:
		err = r.atomicALC(fn)
	}
	if err != nil {
		r.observeFailed(err)
	}
	return err
}

// AtomicRO executes fn as a read-only transaction: abort-free, wait-free,
// and — because the multi-version store always serves a consistent snapshot
// — serializable, even on a replica outside the primary component (§3: an
// ejected replica keeps serving read-only transactions on a possibly stale
// snapshot).
func (r *Replica) AtomicRO(fn func(*stm.Txn) error) error {
	if r.stopped.Load() {
		return ErrStopped
	}
	txn := r.store.Begin(true)
	defer txn.Abort()
	if err := fn(txn); err != nil {
		return err
	}
	r.nReadOnly.Inc()
	return nil
}

// atomicALC is the paper's Algorithm 1 commit path plus the retry driver, for
// any number of shard groups: the transaction's conflict classes map onto one
// or more groups, and a single group is simply the one-element case of every
// per-shard loop below (one involved shard, nothing above it to release, a
// counting waiter of 1).
//
//	run fn; read-only commits locally
//	early validation (cheap local pre-abort)
//	prepare — establish a lease on every involved shard, in ascending shard
//	  order: reuse a held one (zero messages), replace it if the re-execution
//	  changed its data-set (§4.4 piggybacked release), or acquire it (one
//	  OAB; with PiggybackCert a single-shard read/write-set rides along and
//	  certification completes at lease establishment — §4.5(c)). Before
//	  blocking on shard k every held lease on a shard > k is released, which
//	  keeps the cross-group wait-graph acyclic (each group's own manager
//	  still detects its in-group deadlocks)
//	certify — the per-shard lease grants are the certification votes: once
//	  all involved groups granted, the origin validates the full read-set
//	  against the shared store under the union of the leases; failure
//	  re-executes WHILE HOLDING the leases, which shelters the transaction
//	  from further remote conflicts
//	decide — the write-set splits into per-shard portions (classes partition
//	  exactly by shard) UR-broadcast under ONE TxnID, each portion WAL-logged
//	  and frontier-tracked on its home shard. The commit is acknowledged
//	  only when the LAST portion self-delivers (counting waiter): an
//	  acknowledged commit is therefore complete on every shard at every
//	  replica — URB uniformity per portion. If the origin fails mid-decide,
//	  unacknowledged portions may surface as unrecorded writers (the
//	  standing indeterminacy of a crashed committer, which the history
//	  checker admits); they can never be acknowledged.
//
// A lease-free read-only transaction on a remote replica can transiently
// observe a cross-shard commit non-atomically (portion A applied, portion B
// in flight); update transactions cannot — validation runs under leases on
// every involved shard. See DESIGN.md decision 17.
func (r *Replica) atomicALC(fn func(*stm.Txn) error) error {
	// escalateAfter is the §4.4 fallback threshold: a transaction whose
	// data-set keeps drifting across this many re-executions acquires
	// wildcard leases (the whole set of conflict classes of every involved
	// shard), which deterministically bounds its aborts.
	const escalateAfter = 3

	var (
		held      = make(map[int]lease.RequestID) // shard → lease held there
		wildcard  bool
		fence     bool // re-execute under all-shard wildcards (torn read view)
		fenceHeld bool
		aborts    int
		// remoteSheltered counts final-validation failures attributable to a
		// REMOTE writer while the transaction held covering leases that were
		// already established before the attempt began — aborts §4's lease
		// retention promises cannot happen. Reported to the observer; the
		// history checker asserts it stays 0.
		remoteSheltered int
		// accum accumulates every data item accessed across re-executions:
		// leases are taken over the union, so a transaction whose data-set
		// drifts between attempts (§4.4) regains full shelter after one
		// lease replacement instead of chasing its own read-set forever.
		accum map[string]struct{}
	)
	// releaseAbove drops held leases on shards above limit: called before any
	// blocking acquisition on shard `limit`, it enforces the ascending-order
	// invariant of the prepare phase.
	releaseAbove := func(limit int) {
		for sh, id := range held {
			if sh > limit {
				r.shards[sh].lm.Finished(id)
				delete(held, sh)
			}
		}
	}
	releaseAll := func() { releaseAbove(-1) }
	defer releaseAll()

	// End-to-end latency is timed from the first attempt: restarting the
	// clock on re-execution would report only the final attempt's cost for
	// exactly the transactions contention delays most.
	txnStart := time.Now()
	for {
		if r.stopped.Load() {
			return ErrStopped
		}
		if !r.primary.Load() {
			return ErrEjected
		}
		if r.cfg.MaxRetries > 0 && aborts > r.cfg.MaxRetries {
			return ErrTooManyRetries
		}

		// Torn-read-view fence: acquire wildcard leases on EVERY shard before
		// taking the snapshot. Acquiring a shard's wildcard drains that
		// shard's group and is causally ordered after every acknowledged
		// commit's portion on it, so the snapshot taken under all of them
		// observes each cross-shard commit entirely or not at all.
		if fence && !fenceHeld {
			releaseAll()
			var zero lease.RequestID
			ok := true
			for sh := range r.shards {
				id, err := r.shards[sh].lm.GetLeaseEverything(zero)
				switch {
				case err == nil:
					held[sh] = id
				case errors.Is(err, lease.ErrDeadlock):
					r.nAborts[abortDeadlock].Inc()
					aborts++
					releaseAll()
					ok = false
				case errors.Is(err, lease.ErrNotPrimary):
					return ErrEjected
				default:
					return ErrStopped
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			fenceHeld = true
			wildcard = true // establishment below reuses the fence leases
		}

		// Snapshot the lease state at the top of the attempt: a validation
		// failure is only "sheltered" (and so checkable against the §4
		// at-most-one-remote-abort promise) when the SAME leases covered
		// every involved shard for the whole attempt, execution included.
		heldAtBegin := make(map[int]lease.RequestID, len(held))
		for sh, id := range held {
			heldAtBegin[sh] = id
		}

		execStart := time.Now()
		txn := r.store.Begin(false)
		if err := fn(txn); err != nil {
			txn.Abort()
			// A missing box during optimistic execution can be a transiently
			// torn READ view of a cross-shard commit: the portion creating
			// the box applied here while a sibling portion this execution
			// also depends on has not (lease-free reads take no locks; see
			// DESIGN.md decision 17). Indistinguishable, locally, from a box
			// that genuinely never existed — so retry once under the fence
			// above, whose snapshot cannot be torn. Only then is the error
			// the user's. A single group has no sibling portions to tear.
			if errors.Is(err, stm.ErrNoSuchBox) && len(r.shards) > 1 && !fenceHeld {
				fence = true
				aborts++
				continue
			}
			return err
		}
		r.stageExec.Observe(time.Since(execStart))
		if !txn.IsUpdate() {
			txn.Abort()
			r.nReadOnly.Inc()
			return nil
		}

		rs, ws := txn.ReadSet(), txn.WriteSet()
		items := dataSet(rs, ws)
		if accum != nil {
			// A re-execution: extend the accumulated access set.
			for _, it := range items {
				accum[it] = struct{}{}
			}
			if len(accum) > len(items) {
				items = make([]string, 0, len(accum))
				for it := range accum {
					items = append(items, it)
				}
			}
		}
		byShard := r.itemsByShard(items)
		involved := involvedShards(byShard)

		// Early validation (first attempt only): a transaction already
		// known stale needs no broadcast before retrying. It must NOT be
		// repeated on later attempts — under churn, a long transaction
		// would fail it forever and never reach the lease acquisition that
		// shelters it; acquiring the lease despite known-stale reads is
		// exactly how ALC bounds re-executions (§4: the transaction is
		// "re-executed without releasing the lease").
		if aborts == 0 && len(held) == 0 && !txn.Validate() {
			txn.Abort()
			r.nAborts[abortEarly].Inc()
			aborts++
			accum = accumulate(accum, items)
			continue
		}

		// Lease establishment (escalation, replacement, reuse, acquisition,
		// or the §4.5(c) piggyback) — everything from here until the final
		// validation is the lease-wait stage.
		leaseStart := time.Now()

		// §4.4 escalation: wildcard leases on every involved shard. Existing
		// holds are released first; the establishment loop below acquires the
		// wildcards in ascending order like any other lease.
		if aborts >= escalateAfter && !wildcard {
			releaseAll()
			wildcard = true
		}

		// §4.5(c) piggyback: single-shard transactions only (the payload
		// certifies in ONE group's order; a cross-shard payload would need
		// the very cross-group coordination the portion commit provides).
		if r.cfg.PiggybackCert && !wildcard && len(involved) == 1 {
			s := r.shards[involved[0]]
			if _, ok := held[s.idx]; !ok {
				// Lease retention fast path first: an enabled request from an
				// earlier transaction serves this one with zero communication.
				if id, ok := s.lm.TryReuse(items); ok {
					held[s.idx] = id
				} else if !s.lm.HasCoverage(items) {
					done, err := r.commitPiggybacked(s, txn, rs, ws, items, held, &aborts, remoteSheltered, txnStart, leaseStart)
					if done {
						return err
					}
					continue
				}
			}
		}

		// Prepare: per-shard lease establishment, ascending.
		if lerr, retry := r.establishShardLeases(txn, held, byShard, involved, wildcard, &aborts, releaseAbove); lerr != nil {
			return lerr
		} else if retry {
			continue // deadlock victim somewhere: re-execute from scratch
		}
		r.stageLeaseWait.Observe(time.Since(leaseStart))

		// Certify: full-read-set validation under the union of the leases.
		// The reservation in the striped in-flight table serializes
		// intersecting local committers — two transactions sharing a lease
		// must not both validate against the pre-apply state — while disjoint
		// committers proceed concurrently on separate stripes. It is held
		// from before validation until the last portion's self-delivery.
		wsCls := r.wsClasses(ws)
		certStart := time.Now()
		if !r.inflight.reserve(r.classes(items), wsCls, r.alive) {
			txn.Abort()
			return ErrEjected
		}
		// ValidateConflicts is Validate plus attribution in one scan:
		// invalid means the read-set is stale (abort), and the conflicting
		// head writers say whether a remote transaction snuck past a held
		// lease.
		valid, conflicts := r.store.ValidateConflicts(txn.Snapshot(), rs)
		r.stageCert.Observe(time.Since(certStart))
		if !valid {
			r.inflight.release(wsCls)
			txn.Abort()
			r.nAborts[abortFinal].Inc()
			unchanged := len(involved) > 0
			for _, sh := range involved {
				idB, okB := heldAtBegin[sh]
				idN, okN := held[sh]
				if !okB || !okN || idB != idN {
					unchanged = false
					break
				}
			}
			if unchanged {
				for _, c := range conflicts {
					if !c.Writer.IsZero() && c.Writer.Replica != r.id {
						remoteSheltered++
						break
					}
				}
			}
			aborts++
			accum = accumulate(accum, items)
			continue // re-execute holding the leases: no further remote aborts
		}

		// Decide: broadcast the per-shard portions under one TxnID. seqMu
		// makes {ID allocation; enqueue of every portion} atomic so no later
		// local committer can interleave a lower/higher seq out of order on
		// any channel (the receivers' per-writer frontier filter would
		// silently drop the inversion).
		//
		// A multi-shard write-set travels as ONE gcs.Group: the portions
		// hold their per-shard outbox positions until all are ready, then
		// leave the origin in a single transport frame per peer. Without
		// that, each portion departs on its own dispatcher goroutine and a
		// crash between two drains tears the commit — one portion achieves
		// uniform delivery while its sibling was never transmitted.
		portions := r.wsByShard(ws)
		var wsShards []int // ascending: the group's lock order
		for sh, p := range portions {
			if len(p) > 0 {
				wsShards = append(wsShards, sh)
			}
		}
		r.seqMu.Lock()
		tid := r.nextTxnID()
		ch := r.registerWaiterN(tid, len(wsShards))
		var grp *gcs.Group
		if len(wsShards) > 1 {
			eps := make([]*gcs.Endpoint, len(wsShards))
			for i, sh := range wsShards {
				eps[i] = r.shards[sh].ep
			}
			grp = gcs.NewGroup(eps...)
			r.registerGroup(grp)
		}
		// Each shard's coalescer owns its portion's share of the reservation
		// and the counting waiter: resolved at self-delivery, failed (whole
		// waiter, first error wins) on ejection.
		for _, sh := range wsShards {
			cls := wsCls // a lone portion is the whole write-set
			if grp != nil {
				cls = r.wsClasses(portions[sh])
			}
			e := applyWSEntry{TxnID: tid, LeaseID: held[sh], WS: portions[sh]}
			r.shards[sh].coal.enqueue(e, cls, grp)
		}
		r.seqMu.Unlock()

		err := <-ch
		if grp != nil {
			r.unregisterGroup(grp)
		}
		if err != nil {
			txn.Abort()
			return err
		}
		txn.Finish()
		r.nCommits.Inc()
		if grp != nil {
			r.nCross.Inc()
		}
		r.retries.Observe(aborts)
		r.latency.Observe(time.Since(txnStart))
		r.observeCommitted(TxnReport{
			ID:                    tid,
			Snapshot:              txn.Snapshot(),
			RS:                    rs,
			WS:                    ws,
			Retries:               aborts,
			RemoteShelteredAborts: remoteSheltered,
			Protocol:              ProtocolALC,
			Lease:                 held[wsShards[0]],
		})
		return nil
	}
}

// establishShardLeases brings held up to covering every involved shard's
// items, acquiring in ascending shard order with the release-above-before-
// blocking discipline. Returns a terminal error, or retry=true when some
// group made the transaction a deadlock victim (aborts already counted).
func (r *Replica) establishShardLeases(
	txn *stm.Txn,
	held map[int]lease.RequestID,
	byShard [][]string,
	involved []int,
	wildcard bool,
	aborts *int,
	releaseAbove func(int),
) (error, bool) {
	var zero lease.RequestID
	for _, sh := range involved {
		s := r.shards[sh]
		if wildcard {
			if _, ok := held[sh]; ok {
				continue // a wildcard lease covers any class of its group
			}
			releaseAbove(sh)
			id, err := s.lm.GetLeaseEverything(zero)
			if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
				return lerr, false
			}
			if err != nil {
				return nil, true
			}
			held[sh] = id
			continue
		}
		items := byShard[sh]
		if id, ok := held[sh]; ok {
			if s.lm.Covers(id, items) {
				continue
			}
			// The re-execution changed this shard's conflict classes (§4.4).
			if s.lm.ActiveCount(id) == 1 {
				releaseAbove(sh)
				nid, err := s.lm.GetLeaseReplacing(items, id)
				delete(held, sh)
				if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
					return lerr, false
				}
				if err != nil {
					return nil, true
				}
				held[sh] = nid
				continue
			}
			// Other transactions share the lease: release our association
			// and acquire separately.
			s.lm.Finished(id)
			delete(held, sh)
		}
		if id, ok := s.lm.TryReuse(items); ok {
			held[sh] = id
			continue
		}
		releaseAbove(sh)
		id, err := s.lm.GetLease(items)
		if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
			return lerr, false
		}
		if err != nil {
			return nil, true
		}
		held[sh] = id
	}
	return nil, false
}

// commitPiggybacked runs the §4.5(c) flow on the transaction's single home
// shard s: the read/write-set travel on the lease request and every replica
// certifies at lease establishment. The acquired lease is recorded in held.
// Returns done=true when the transaction committed or failed terminally;
// done=false when it must re-execute (now holding the lease).
func (r *Replica) commitPiggybacked(
	s *shardState,
	txn *stm.Txn,
	rs stm.ReadSet,
	ws stm.WriteSet,
	items []string,
	held map[int]lease.RequestID,
	aborts *int,
	sheltered int,
	txnStart time.Time,
	leaseStart time.Time,
) (bool, error) {
	tid := r.nextTxnID()
	ch := r.registerWaiter(tid)
	id, err := s.lm.GetLeaseWithPayload(items, &certPayload{TxnID: tid, RS: rs, WS: ws})
	if err != nil {
		r.dropWaiter(tid)
		if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
			return true, lerr
		}
		return false, nil // deadlock victim: retry
	}
	held[s.idx] = id
	certStart := time.Now()
	r.stageLeaseWait.Observe(certStart.Sub(leaseStart))

	outcome := <-ch
	r.stageCert.Observe(time.Since(certStart))
	switch err := outcome; {
	case err == nil:
		txn.Finish()
		r.nCommits.Inc()
		r.retries.Observe(*aborts)
		r.latency.Observe(time.Since(txnStart))
		r.observeCommitted(TxnReport{
			ID:                    tid,
			Snapshot:              txn.Snapshot(),
			RS:                    rs,
			WS:                    ws,
			Retries:               *aborts,
			RemoteShelteredAborts: sheltered,
			Protocol:              ProtocolALC,
			Lease:                 id,
		})
		return true, nil
	case errors.Is(err, errValidationFailed):
		// The lease was acquired by this very request, so the abort is a
		// pre-shelter one: not counted against the §4 invariant.
		txn.Abort()
		r.nAborts[abortPayload].Inc()
		*aborts++
		return false, nil // re-execute holding the lease
	default:
		txn.Abort()
		return true, err
	}
}

// leaseErr classifies a lease acquisition error: terminal errors are
// returned, deadlock victims retry (nil result with err != nil at the call
// site).
func (r *Replica) leaseErr(txn *stm.Txn, err error, aborts *int) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, lease.ErrDeadlock):
		txn.Abort()
		r.nAborts[abortDeadlock].Inc()
		*aborts++
		return nil
	case errors.Is(err, lease.ErrNotPrimary):
		txn.Abort()
		return ErrEjected
	default:
		txn.Abort()
		return ErrStopped
	}
}

// accumulate records items into the cross-attempt access set.
func accumulate(accum map[string]struct{}, items []string) map[string]struct{} {
	if accum == nil {
		accum = make(map[string]struct{}, 2*len(items))
	}
	for _, it := range items {
		accum[it] = struct{}{}
	}
	return accum
}

// dataSet returns the union of the read- and write-set box IDs.
func dataSet(rs stm.ReadSet, ws stm.WriteSet) []string {
	seen := make(map[string]struct{}, len(rs)+len(ws))
	out := make([]string, 0, len(rs)+len(ws))
	for _, e := range rs {
		if _, ok := seen[e.Box]; !ok {
			seen[e.Box] = struct{}{}
			out = append(out, e.Box)
		}
	}
	for _, e := range ws {
		if _, ok := seen[e.Box]; !ok {
			seen[e.Box] = struct{}{}
			out = append(out, e.Box)
		}
	}
	return out
}
