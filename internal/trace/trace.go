// Package trace is the unified diagnostics substrate for the replication
// stack. It replaces three ad-hoc hooks that grew independently — the lease
// manager's printf callback, the simulator's event log, and the core
// Observer interface — with one typed, per-transaction-correlated event
// stream that every layer emits into and every consumer (cmd/alc-sim -trace,
// the history checker, ad-hoc debugging) reads from.
//
// The Tracer is a fixed-capacity ring buffer designed for the commit path:
// emitting costs one atomic increment, one per-slot mutex, and a time stamp.
// There is no global lock; concurrent emitters only contend when they hash to
// the same slot, which at protocol event rates is rare. Consumers either read
// the ring after the fact (Events) or attach a Sink to observe events as they
// happen (the history checker's recorder does this, so it never misses an
// event to ring wraparound).
//
// A nil *Tracer is valid and silently discards everything, so packages can
// thread an optional tracer without nil checks at every call site.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// Kind classifies a protocol event.
type Kind uint8

const (
	// KindTxnInvoked fires once per Atomic call (not per re-execution
	// attempt), before the first attempt begins.
	KindTxnInvoked Kind = iota + 1
	// KindTxnCommitted fires after a transaction's write-set self-delivered
	// (ALC) or certified in the total order (CERT). Payload carries the
	// checker-facing core.TxnReport.
	KindTxnCommitted
	// KindTxnFailed fires when an Atomic call returns a terminal error.
	KindTxnFailed
	// KindLease marks a lease-manager state transition (request issued,
	// enabled, reused, freed, deadlock break, state transfer).
	KindLease
	// KindBatch marks a coalescer flush or batch delivery.
	KindBatch
	// KindView marks a group-membership change.
	KindView
)

var kindNames = [...]string{
	KindTxnInvoked:   "txn-invoked",
	KindTxnCommitted: "txn-committed",
	KindTxnFailed:    "txn-failed",
	KindLease:        "lease",
	KindBatch:        "batch",
	KindView:         "view",
}

// String returns the kind's stable lowercase name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one protocol event. Txn is the local transaction counter of the
// emitting replica when the event is transaction-correlated, 0 otherwise.
// Payload carries a kind-specific value (core.TxnReport for
// KindTxnCommitted, error for KindTxnFailed); consumers type-switch on it.
type Event struct {
	Seq     uint64
	At      time.Time
	Replica transport.ID
	Kind    Kind
	Txn     uint64
	Msg     string
	Payload any
}

// Format renders the event as one human-readable line, with the timestamp
// shown as milliseconds since start (the tracer's first event or an explicit
// epoch).
func (e Event) Format(epoch time.Time) string {
	txn := ""
	if e.Txn != 0 {
		txn = fmt.Sprintf(" txn=%d", e.Txn)
	}
	return fmt.Sprintf("%9.3fms [r%d] %s%s %s",
		float64(e.At.Sub(epoch).Microseconds())/1000, e.Replica, e.Kind, txn, e.Msg)
}

// Sink observes events as they are emitted. Implementations must be safe for
// concurrent use and cheap: they run inline on the emitting goroutine (the
// commit path).
type Sink interface {
	TraceEvent(Event)
}

// Tracer is a lock-cheap ring buffer of Events plus a fan-out to attached
// Sinks. The zero value is not usable; call New. A nil *Tracer discards all
// emits.
type Tracer struct {
	slots []slot
	mask  uint64
	seq   atomic.Uint64
	sinks atomic.Pointer[[]Sink]
	start time.Time
}

type slot struct {
	mu sync.Mutex
	ev Event
	_  [24]byte // keep adjacent slots off one cache line
}

// DefaultCapacity is the ring size New uses when given a non-positive
// capacity: large enough to hold the interesting tail of a failing sim run.
const DefaultCapacity = 8192

// New creates a tracer whose ring holds at least capacity events (rounded up
// to a power of two).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{slots: make([]slot, n), mask: uint64(n - 1), start: time.Now()}
}

// Start returns the tracer's creation time, the natural epoch for Format.
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Attach registers a sink that will see every subsequent event. Attach is
// safe to call concurrently with Emit.
func (t *Tracer) Attach(s Sink) {
	if t == nil || s == nil {
		return
	}
	for {
		old := t.sinks.Load()
		var next []Sink
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, s)
		if t.sinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Emit records one event. The Seq and At fields are assigned by the tracer;
// any values the caller put there are overwritten. Safe for concurrent use;
// a nil receiver discards the event.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.Seq = t.seq.Add(1)
	e.At = time.Now()
	s := &t.slots[e.Seq&t.mask]
	s.mu.Lock()
	s.ev = e
	s.mu.Unlock()
	if sinks := t.sinks.Load(); sinks != nil {
		for _, sink := range *sinks {
			sink.TraceEvent(e)
		}
	}
}

// Emitf records a formatted message event. The message is only formatted when
// the tracer is live, so dead-tracer call sites cost one branch.
func (t *Tracer) Emitf(replica transport.ID, kind Kind, txn uint64, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(Event{Replica: replica, Kind: kind, Txn: txn, Msg: fmt.Sprintf(format, args...)})
}

// Len returns the number of events emitted so far (including ones the ring
// has since overwritten).
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Events returns the events still held in the ring, oldest first. The slice
// is a snapshot; the tracer keeps recording. Events overwritten mid-snapshot
// appear with their new contents — the result is always a set of real events
// in Seq order, though not necessarily a contiguous one under heavy
// concurrent emission.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		if ev.Seq != 0 {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
