package core

import (
	"errors"
	"time"

	"github.com/alcstm/alc/internal/bloom"
	"github.com/alcstm/alc/internal/stm"
)

// atomicCert is the CERT baseline (D2STM): optimistic local execution, then
// one atomic broadcast of ⟨Bloom(read-set), write-set⟩ and a deterministic
// validation at every replica in the total order. Unlike ALC, nothing
// shelters a re-execution: the transaction can be aborted again and again by
// remote conflicts (the behaviour Figure 3(b)/4(b) quantifies).
func (r *Replica) atomicCert(fn func(*stm.Txn) error) error {
	aborts := 0
	// End-to-end latency runs from the first attempt; the per-attempt AB
	// certification round is timed separately into stageCert.
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

		// Sample the TO commit clock BEFORE the snapshot is taken, between
		// installs: install moves the clock before the store (log before
		// install), so the sample is taken under the apply barrier held
		// exclusively. Every commit it counts is then in the store, and the
		// sample can only under-state the transaction's snapshot position —
		// widening the validation window (possible extra conservative
		// aborts), never narrowing it.
		r.dur.applyMu.Lock()
		snapOrd := r.dur.toClock()
		r.dur.applyMu.Unlock()

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

		// Early validation: cheap local pre-abort before paying for the AB.
		rs, ws := txn.ReadSet(), txn.WriteSet()
		if r.store.Stale(rs) != nil {
			txn.Abort()
			r.nAborts[abortEarly].Inc()
			aborts++
			continue
		}

		msg := &certMsg{
			TxnID:       r.nextTxnID(),
			SnapshotOrd: snapOrd,
			WS:          ws,
		}
		if r.cfg.BloomFPRate > 0 {
			f := bloom.NewWithFPRate(len(rs), r.cfg.BloomFPRate)
			f.AddAll(rs.BoxIDs())
			msg.RSBloom = f.Marshal()
		} else {
			msg.RSExact = rs.BoxIDs()
		}

		ch := r.registerWaiter(msg.TxnID, nil)
		certStart := time.Now()
		if err := r.ep.OABroadcast(msg); err != nil {
			r.dropWaiter(msg.TxnID)
			txn.Abort()
			return ErrEjected
		}

		outcome := awaitOutcome(ch)
		r.stageCert.Observe(time.Since(certStart))
		switch err := outcome; {
		case err == nil:
			r.committed(txn, txnStart, TxnReport{
				ID:       msg.TxnID,
				RS:       rs,
				WS:       ws,
				Retries:  aborts,
				Protocol: ProtocolCert,
			})
			return nil
		case errors.Is(err, errValidationFailed):
			txn.Abort()
			r.nAborts[abortFinal].Inc()
			aborts++
			// No shelter: the next execution races the cluster again.
		default:
			txn.Abort()
			return err
		}
	}
}

// certApply is the deterministic certification step, executed at every
// replica in the TO-delivery order. Valid transactions take the next ordinal
// on the TO commit clock — validity is itself a deterministic function of the
// preceding TO history, so ordinals (and the certLog they key) are identical
// cluster-wide, unlike the local store's commit timestamp, which also counts
// URB-lane applies in a replica-local order.
func (r *Replica) certApply(m *certMsg) {
	valid := r.certValidate(m)
	if valid {
		// A CERT commit the store already absorbed (delta install overlap) is
		// skipped whole: its certLog digest arrived with the transferred
		// window.
		ord := r.dur.toClock() + 1
		if len(r.install([]applyWSEntry{{TxnID: m.TxnID, Ord: ord, WS: m.WS}})) > 0 {
			r.certLog.append(ord, m.WS.BoxIDs())
		}
	}
	if m.TxnID.Replica == r.id {
		r.resolveWaiter(m.TxnID, verdict(valid))
	}
}

// verdict is a certification outcome, as its transaction's waiter receives
// it.
func verdict(valid bool) error {
	if valid {
		return nil
	}
	return errValidationFailed
}

// certValidate checks the transaction's read-set against every write-set
// committed in the total order after its snapshot. A snapshot older than the
// retained window aborts conservatively (deterministically: the window is a
// shared configuration and the TO clock is identical at every replica).
func (r *Replica) certValidate(m *certMsg) bool {
	clock := r.dur.toClock()
	if m.SnapshotOrd > clock {
		// A snapshot from the future would mean clock divergence.
		return false
	}
	if clock-m.SnapshotOrd > int64(r.certLog.capacity()) {
		return false
	}
	checker, err := m.checker()
	if err != nil {
		return false
	}
	return r.certLog.scan(m.SnapshotOrd+1, clock, func(box string) bool {
		return !checker.contains(box)
	})
}

// certLogEntry is the digest of one committed write-set: its TO-clock
// ordinal and the boxes it wrote.
type certLogEntry struct {
	TS    int64
	Boxes []string
}

// certLog is a ring of recent write-set digests indexed by TO ordinal
// (ordinals start at 1, so the zero TS doubles as the empty-slot sentinel).
// Only CERT ever appends to it, so the ring — 2 MB at certLogSize, all of it
// counted into the collector's heap goal — is allocated by the first append
// or non-empty restore, not with the replica.
type certLog struct {
	size int
	ring []certLogEntry
}

// certLogSize bounds CERT's retained validation window (committed write-set
// digests); transactions with older snapshots abort conservatively.
const certLogSize = 65536

func newCertLog(capacity int) *certLog { return &certLog{size: capacity} }

func (l *certLog) capacity() int { return l.size }

func (l *certLog) append(ts int64, boxes []string) {
	if l.ring == nil {
		l.ring = make([]certLogEntry, l.size)
	}
	l.ring[ts%int64(l.size)] = certLogEntry{TS: ts, Boxes: boxes}
}

// scan visits every box written at ordinals in [from, to]; it stops and
// returns false as soon as keep returns false (conflict found) or an entry
// is missing from the window.
func (l *certLog) scan(from, to int64, keep func(box string) bool) bool {
	if l.ring == nil {
		return from > to // nothing retained at all
	}
	for ts := from; ts <= to; ts++ {
		e := l.ring[ts%int64(l.size)]
		if e.TS != ts {
			return false // outside the retained window: abort conservatively
		}
		for _, b := range e.Boxes {
			if !keep(b) {
				return false
			}
		}
	}
	return true
}

// snapshot exports the populated window (state transfer).
func (l *certLog) snapshot() []certLogEntry {
	var out []certLogEntry
	for _, e := range l.ring {
		if e.TS != 0 || len(e.Boxes) > 0 {
			out = append(out, e)
		}
	}
	return out
}

// restore imports a transferred window.
func (l *certLog) restore(entries []certLogEntry) {
	l.ring = nil
	for _, e := range entries {
		l.append(e.TS, e.Boxes)
	}
}
