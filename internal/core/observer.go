package core

import (
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/trace"
)

// Per-transaction lifecycle events are emitted into the configured
// trace.Tracer (Config.Tracer). The offline history checker consumes them by
// attaching a trace.Sink; KindTxnCommitted events carry a TxnReport payload.
// Emits run on the commit path, so sinks must be cheap (append to a locked
// log, not I/O).

// TxnReport is the checker-facing record of one committed transaction: the
// identity its write-set versions carry cluster-wide, the snapshot and
// read-set of the final (committed) execution, and the abort history of the
// attempts before it. It travels as the Payload of a KindTxnCommitted trace
// event.
type TxnReport struct {
	// ID is the cluster-unique transaction ID the write-set was installed
	// under; it matches the writer IDs in Store.VersionWriters.
	ID stm.TxnID
	// Snapshot is the committing execution's snapshot timestamp (local to the
	// executing replica's store).
	Snapshot int64
	// RS and WS are the committing execution's read- and write-set. The
	// read-set carries the writer identity of every version observed —
	// replica-independent, hence usable for cross-replica serialization-graph
	// construction.
	RS stm.ReadSet
	WS stm.WriteSet
	// Retries is how many aborted attempts preceded the commit.
	Retries int
	// RemoteShelteredAborts counts validation failures suffered while the
	// transaction already held a covering lease that was established before
	// the attempt began — aborts ALC's lease retention promises cannot
	// happen (§4: once the lease is held, conflicting remote write-sets are
	// causally ordered before it). The checker asserts this is always 0.
	RemoteShelteredAborts int
	// Protocol is the protocol that committed the transaction.
	Protocol Protocol
	// Lease is the lease request the transaction committed under (ALC only;
	// zero for CERT). Diagnostics: correlates commits with lease transfers.
	Lease lease.RequestID
}

// The nil guards keep the unobserved path to one predictable branch and
// avoid boxing event payloads nobody will read (Tracer.Emit itself is also
// nil-safe). The lifecycle messages are constants, so a traced commit
// formats nothing.

func (r *Replica) observeInvoked() {
	if t := r.cfg.Tracer; t != nil {
		t.Emit(trace.Event{Replica: r.id, Kind: trace.KindTxnInvoked, Msg: "atomic"})
	}
}

func (r *Replica) observeCommitted(rep TxnReport) {
	if t := r.cfg.Tracer; t != nil {
		t.Emit(trace.Event{Replica: r.id, Kind: trace.KindTxnCommitted, Txn: rep.ID.Seq,
			Msg: rep.Protocol.String(), Payload: rep})
	}
}

func (r *Replica) observeFailed(err error) {
	if t := r.cfg.Tracer; t != nil {
		t.Emit(trace.Event{Replica: r.id, Kind: trace.KindTxnFailed, Msg: err.Error(), Payload: err})
	}
}
