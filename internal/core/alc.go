package core

import (
	"errors"
	"time"

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

// atomicALC is the paper's Algorithm 1 commit path plus the retry driver:
//
//	run fn; read-only commits locally
//	early validation (cheap local pre-abort)
//	prepare — establish a lease on the transaction's conflict classes: reuse
//	  a held one (zero messages), replace it if the re-execution changed its
//	  data-set (§4.4 piggybacked release), or acquire it (one OAB; with
//	  PiggybackCert the read/write-set rides along and certification
//	  completes at lease establishment — §4.5(c))
//	certify — validate the full read-set under the lease; failure re-executes
//	  WHILE HOLDING the lease, which shelters the transaction from further
//	  remote conflicts
//	decide — UR-broadcast the write-set; the commit is acknowledged when it
//	  self-delivers, so an acknowledged commit is held by a quorum (URB
//	  uniformity)
func (r *Replica) atomicALC(fn func(*stm.Txn) error) error {
	// escalateAfter is the §4.4 fallback threshold: a transaction whose
	// data-set keeps drifting across this many re-executions acquires a
	// wildcard lease (the whole set of conflict classes), which
	// deterministically bounds its aborts.
	const escalateAfter = 3

	var (
		none     lease.RequestID
		held     lease.RequestID // the lease this transaction holds, or none
		wildcard bool
		aborts   int
		// remoteSheltered counts final-validation failures attributable to a
		// REMOTE writer while the transaction held a covering lease that was
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
	release := func() {
		if held != none {
			r.lm.Finished(held)
			held = none
		}
	}
	defer release()

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

		// Snapshot the lease at the top of the attempt: a validation failure
		// is only "sheltered" (and so checkable against the §4
		// at-most-one-remote-abort promise) when the SAME lease covered the
		// whole attempt, execution included.
		heldAtBegin := held

		execStart := time.Now()
		txn := r.store.Begin(false)
		if err := fn(txn); err != nil {
			txn.Abort()
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

		// Early validation (first attempt only): a transaction already
		// known stale needs no broadcast before retrying. It must NOT be
		// repeated on later attempts — under churn, a long transaction
		// would fail it forever and never reach the lease acquisition that
		// shelters it; acquiring the lease despite known-stale reads is
		// exactly how ALC bounds re-executions (§4: the transaction is
		// "re-executed without releasing the lease").
		if aborts == 0 && held == none && !txn.Validate() {
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

		// §4.4 escalation: a wildcard lease. The held lease is released first;
		// establishLease below acquires the wildcard like any other lease.
		if aborts >= escalateAfter && !wildcard {
			release()
			wildcard = true
		}

		// §4.5(c) piggyback, tried only when no lease is held.
		if r.cfg.PiggybackCert && !wildcard && held == none {
			// Lease retention fast path first: an enabled request from an
			// earlier transaction serves this one with zero communication.
			if id, ok := r.lm.TryReuse(items); ok {
				held = id
			} else if !r.lm.HasCoverage(items) {
				done, err := r.commitPiggybacked(txn, rs, ws, items, &held, &aborts, remoteSheltered, txnStart, leaseStart)
				if done {
					return err
				}
				continue
			}
		}

		// Prepare: lease establishment.
		if lerr, retry := r.establishLease(txn, &held, items, wildcard, &aborts); lerr != nil {
			return lerr
		} else if retry {
			continue // deadlock victim: re-execute from scratch
		}
		r.stageLeaseWait.Observe(time.Since(leaseStart))

		// Certify: full-read-set validation under the lease. The reservation
		// in the striped in-flight table serializes intersecting local
		// committers — two transactions sharing a lease must not both
		// validate against the pre-apply state — while disjoint committers
		// proceed concurrently on separate stripes. It is held from before
		// validation until the write-set's self-delivery.
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
			if held != none && held == heldAtBegin {
				for _, c := range conflicts {
					if !c.Writer.IsZero() && c.Writer.Replica != r.id {
						remoteSheltered++
						break
					}
				}
			}
			aborts++
			accum = accumulate(accum, items)
			continue // re-execute holding the lease: no further remote aborts
		}

		// Decide: broadcast the write-set. seqMu makes {ID allocation;
		// enqueue} atomic so no later local committer can enqueue a lower seq
		// behind a higher one (the receivers' per-writer frontier filter would
		// silently drop the inversion). The coalescer owns the reservation and
		// the waiter from here: resolved at self-delivery, failed on ejection.
		r.seqMu.Lock()
		tid := r.nextTxnID()
		ch := r.registerWaiter(tid)
		r.coal.enqueue(applyWSEntry{TxnID: tid, LeaseID: held, WS: ws}, wsCls)
		r.seqMu.Unlock()

		if err := <-ch; err != nil {
			txn.Abort()
			return err
		}
		txn.Finish()
		r.nCommits.Inc()
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
			Lease:                 held,
		})
		return nil
	}
}

// establishLease brings *held up to covering items (any class, when
// wildcard). Returns a terminal error, or retry=true when the transaction
// was made a deadlock victim (aborts already counted).
func (r *Replica) establishLease(txn *stm.Txn, held *lease.RequestID, items []string, wildcard bool, aborts *int) (error, bool) {
	var none lease.RequestID
	if wildcard {
		if *held != none {
			return nil, false // a wildcard lease covers any class
		}
		id, err := r.lm.GetLeaseEverything(none)
		if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
			return lerr, false
		}
		if err != nil {
			return nil, true
		}
		*held = id
		return nil, false
	}
	if *held != none {
		if r.lm.Covers(*held, items) {
			return nil, false
		}
		// The re-execution changed the transaction's conflict classes (§4.4).
		if r.lm.ActiveCount(*held) == 1 {
			id, err := r.lm.GetLeaseReplacing(items, *held)
			*held = none
			if lerr := r.leaseErr(txn, err, aborts); lerr != nil || err != nil {
				return lerr, lerr == nil
			}
			*held = id
			return nil, false
		}
		// Other transactions share the lease: release our association and
		// acquire separately.
		r.lm.Finished(*held)
		*held = none
	}
	if id, ok := r.lm.TryReuse(items); ok {
		*held = id
		return nil, false
	}
	id, err := r.lm.GetLease(items)
	if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
		return lerr, false
	}
	if err != nil {
		return nil, true
	}
	*held = id
	return nil, false
}

// commitPiggybacked runs the §4.5(c) flow: the read/write-set travel on the
// lease request and every replica certifies at lease establishment. The
// acquired lease is recorded in *held. Returns done=true when the
// transaction committed or failed terminally; done=false when it must
// re-execute (now holding the lease).
func (r *Replica) commitPiggybacked(
	txn *stm.Txn,
	rs stm.ReadSet,
	ws stm.WriteSet,
	items []string,
	held *lease.RequestID,
	aborts *int,
	sheltered int,
	txnStart time.Time,
	leaseStart time.Time,
) (bool, error) {
	tid := r.nextTxnID()
	ch := r.registerWaiter(tid)
	id, err := r.lm.GetLeaseWithPayload(items, &certPayload{TxnID: tid, RS: rs, WS: ws})
	if err != nil {
		r.dropWaiter(tid)
		if lerr := r.leaseErr(txn, err, aborts); lerr != nil {
			return true, lerr
		}
		return false, nil // deadlock victim: retry
	}
	*held = id
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
