package core

import (
	"errors"
	"maps"
	"slices"
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
//	prepare — one lease.Manager.Establish call brings the transaction's lease
//	  up to its conflict classes: keep the held one, replace it if the
//	  re-execution changed its data-set and it is alone on it (§4.4
//	  piggybacked release) or leave it, then reuse a held lease (zero
//	  messages), join a local request still in flight, or acquire one (one
//	  OAB; on a lease miss the read/write-set rides along and the transaction
//	  commits at lease establishment — §4.5(c), see commitPiggybacked)
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
		none   lease.RequestID
		held   lease.RequestID // the lease this transaction holds, or none
		aborts int
		// remoteSheltered counts final-validation failures attributable to a
		// REMOTE writer while the transaction held a covering lease that was
		// already established before the attempt began — aborts §4's lease
		// retention promises cannot happen. Reported to the observer; the
		// history checker asserts it stays 0.
		remoteSheltered int
		// accum accumulates the conflict classes of every data item accessed
		// across re-executions: leases are taken over the union, so a
		// transaction whose data-set drifts between attempts (§4.4) regains
		// full shelter after one lease replacement instead of chasing its own
		// read-set forever.
		accum map[lease.ConflictClass]struct{}
	)
	defer func() {
		if held != none {
			r.lm.Finished(held)
		}
	}()

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

		// The attempt's conflict classes are computed once: the lease call,
		// the in-flight reservation and a lease request all take this slice
		// (a request keeps it, so every attempt computes a fresh one).
		rs, ws := txn.ReadSet(), txn.WriteSet()
		cls := r.dataClasses(rs, ws)
		if accum != nil {
			// A re-execution: extend the accumulated class set.
			for _, c := range cls {
				accum[c] = struct{}{}
			}
			if len(accum) > len(cls) {
				cls = slices.Sorted(maps.Keys(accum))
			}
		}

		// Early validation (first attempt only): a transaction already
		// known stale needs no broadcast before retrying. It must NOT be
		// repeated on later attempts — under churn, a long transaction
		// would fail it forever and never reach the lease acquisition that
		// shelters it; acquiring the lease despite known-stale reads is
		// exactly how ALC bounds re-executions (§4: the transaction is
		// "re-executed without releasing the lease").
		if aborts == 0 && held == none && r.store.Stale(rs) != nil {
			txn.Abort()
			r.nAborts[abortEarly].Inc()
			aborts++
			accum = accumulate(accum, cls)
			continue
		}

		// Prepare: lease establishment — everything from here until the
		// final validation is the lease-wait stage. The §4.4 escalation asks
		// for a wildcard (nil classes); the §4.5(c) lease miss is reported
		// instead of acquired only for a transaction's own classes.
		leaseStart := time.Now()
		want := cls
		if aborts >= escalateAfter {
			want = nil
		}
		id, err := r.lm.Establish(held, want, want != nil && !r.cfg.DisablePiggybackCert)
		held = id
		switch {
		case err == nil:
		case errors.Is(err, lease.ErrMiss):
			done, err := r.commitPiggybacked(txn, rs, ws, cls, &held, &aborts, remoteSheltered, txnStart, leaseStart)
			if done {
				return err
			}
			continue
		case errors.Is(err, lease.ErrDeadlock):
			// A state transfer orphaned the acquisition: re-execute from
			// scratch.
			txn.Abort()
			r.nAborts[abortDeadlock].Inc()
			aborts++
			continue
		case errors.Is(err, lease.ErrNotPrimary):
			txn.Abort()
			return ErrEjected
		default:
			txn.Abort()
			return ErrStopped
		}
		r.stageLeaseWait.Observe(time.Since(leaseStart))

		// Certify: full-read-set validation under the lease. The reservation
		// in the in-flight table serializes intersecting local committers —
		// two transactions sharing a lease must not both validate against
		// the pre-apply state — while disjoint committers never wait for
		// each other. It is held from before validation until the
		// write-set's self-delivery.
		wsCls := r.wsClasses(ws)
		certStart := time.Now()
		if !r.inflight.reserve(cls, wsCls, r.alive) {
			txn.Abort()
			return ErrEjected
		}
		// A stale read-set aborts, and the conflicting head writers say
		// whether a remote transaction snuck past a held lease.
		conflicts := r.store.Stale(rs)
		r.stageCert.Observe(time.Since(certStart))
		if conflicts != nil {
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
			accum = accumulate(accum, cls)
			continue // re-execute holding the lease: no further remote aborts
		}

		// Decide: broadcast the write-set. The waiter owns the reservation
		// from here: it is released when the waiter resolves — at
		// self-delivery, or failed on ejection.
		tid, ch := r.coal.enqueue(held, ws, wsCls)
		if err := awaitOutcome(ch); err != nil {
			txn.Abort()
			return err
		}
		r.committed(txn, txnStart, TxnReport{
			ID:                    tid,
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

// commitPiggybacked runs the §4.5(c) flow: the read/write-set travel on the
// lease request and every replica certifies at lease establishment. The
// acquired lease is recorded in *held. Returns done=true when the
// transaction committed or failed terminally; done=false when it must
// re-execute (now holding the lease).
//
// Once broadcast, the payload may commit at every replica whatever happens
// here: its owner never releases a payload request before it fired. So an
// acquisition that fails anyway (an ejection, a state transfer) leaves
// the outcome unknown and is reported as ErrEjected, never retried — a retry
// could commit the transaction twice.
func (r *Replica) commitPiggybacked(
	txn *stm.Txn,
	rs stm.ReadSet,
	ws stm.WriteSet,
	classes []lease.ConflictClass,
	held *lease.RequestID,
	aborts *int,
	sheltered int,
	txnStart time.Time,
	leaseStart time.Time,
) (bool, error) {
	tid := r.nextTxnID()
	ch := r.registerWaiter(tid, nil)
	id, err := r.lm.GetLeaseWithPayload(classes, &certPayload{TxnID: tid, RS: rs, WS: ws})
	if err != nil {
		r.dropWaiter(tid)
		txn.Abort()
		if errors.Is(err, lease.ErrStopped) {
			return true, ErrStopped
		}
		return true, ErrEjected
	}
	*held = id
	certStart := time.Now()
	r.stageLeaseWait.Observe(certStart.Sub(leaseStart))

	outcome := awaitOutcome(ch)
	r.stageCert.Observe(time.Since(certStart))
	switch err := outcome; {
	case err == nil:
		r.nPiggyback.Inc()
		r.committed(txn, txnStart, TxnReport{
			ID:                    tid,
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

// accumulate records classes into the cross-attempt class set.
func accumulate(accum map[lease.ConflictClass]struct{}, classes []lease.ConflictClass) map[lease.ConflictClass]struct{} {
	if accum == nil {
		accum = make(map[lease.ConflictClass]struct{}, 2*len(classes))
	}
	for _, c := range classes {
		accum[c] = struct{}{}
	}
	return accum
}
