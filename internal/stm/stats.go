package stm

// Stats is a point-in-time snapshot of the store's commit-pipeline counters.
// All counters are cumulative since store creation; gauges (Boxes,
// ActiveTxns) are instantaneous.
type Stats struct {
	// Applied counts committed write-sets: local commits (Txn.Commit)
	// plus remotely applied write-sets (ApplyWriteSet/ApplyWriteSets
	// entries).
	Applied int64
	// StripeContention counts commit-lock acquisitions that found the lock
	// held and had to block. The name predates the single commit lock.
	StripeContention int64
	// ClockWaits is always 0.
	//
	// Deprecated: the commit clock no longer has waiters; the field stays
	// only until the benchmark stops reading it.
	ClockWaits int64
	// GCRuns and GCPruned count GC invocations and the total versions they
	// discarded.
	GCRuns   int64
	GCPruned int64
	// Boxes is the number of boxes in the store; ActiveTxns the number of
	// in-flight transactions.
	Boxes      int
	ActiveTxns int
}

// Stats returns the store's current counters. The reads are individually
// atomic but not mutually: the snapshot is approximate under concurrent
// commits, which is fine for its monitoring purpose.
func (s *Store) Stats() Stats {
	return Stats{
		Applied:          s.applied.Load(),
		StripeContention: s.lockContention.Load(),
		GCRuns:           s.gcRuns.Load(),
		GCPruned:         s.gcPruned.Load(),
		Boxes:            s.NumBoxes(),
		ActiveTxns:       s.ActiveTxns(),
	}
}
