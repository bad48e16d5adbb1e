package core

import (
	"errors"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
)

// This file implements the group-commit pipeline: local committers reserve
// their conflict classes in an in-flight table (so only intersecting
// committers wait for each other) and hand their validated write-sets to a
// per-replica coalescer that URB-broadcasts them in batches (one message,
// one wire frame and one ack round amortized over many transactions).
// UR-delivered batches are applied on the GCS dispatcher, in delivery order
// (applyEntries).

const (
	// maxBatchTxns caps the write-sets coalesced into one batch.
	maxBatchTxns = 128
	// maxBatchDelay bounds how long a pending write-set may wait for
	// co-travelers while an earlier batch is still in flight. It never
	// delays an idle pipe: the first write-set after a quiescent period is
	// broadcast immediately.
	maxBatchDelay = 200 * time.Microsecond
	// maxBatchBytes caps the approximate payload bytes coalesced into one
	// batch.
	maxBatchBytes = 1 << 20
)

// --- In-flight tracking -------------------------------------------------------

// inflightTable tracks, per conflict class, how many local write-sets are
// past validation but not yet applied (queued in the coalescer or in flight
// on the URB until their self-delivery). Local validation must not run
// while an intersecting write-set is in that window, or two transactions
// sharing a lease could both validate against the pre-apply state (lost
// update). reserve atomically checks the caller's classes and marks its
// write-set in flight, so no intersecting committer can slip between the
// check and the reservation; disjoint committers never wait on each other
// (DESIGN.md decision 4).
type inflightTable struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count map[lease.ConflictClass]int
}

func newInflightTable() *inflightTable {
	t := &inflightTable{count: make(map[lease.ConflictClass]int)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// reserve blocks until no in-flight write-set intersects wait, then marks
// add as in flight. It returns false — reserving nothing — when alive
// reports the replica ejected or stopped.
func (t *inflightTable) reserve(wait, add []lease.ConflictClass, alive func() bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if !alive() {
			return false
		}
		if !t.intersects(wait) {
			for _, c := range add {
				t.count[c]++
			}
			return true
		}
		t.cond.Wait()
	}
}

func (t *inflightTable) intersects(classes []lease.ConflictClass) bool {
	for _, c := range classes {
		if t.count[c] > 0 {
			return true
		}
	}
	return false
}

// release drops a reservation taken by reserve. It tolerates classes already
// absent (the table may have been reset by an ejection in between).
func (t *inflightTable) release(classes []lease.ConflictClass) {
	t.mu.Lock()
	for _, c := range classes {
		if t.count[c] <= 1 {
			delete(t.count, c)
		} else {
			t.count[c]--
		}
	}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// reset clears every reservation and wakes all waiters (ejection, state
// install): pending write-sets have been failed and waiting committers must
// re-check alive.
func (t *inflightTable) reset() {
	t.mu.Lock()
	t.count = make(map[lease.ConflictClass]int)
	t.cond.Broadcast()
	t.mu.Unlock()
}

// --- Commit coalescer ----------------------------------------------------------

// flushReason says what triggered a batch broadcast.
type flushReason int

const (
	// flushIdle: no batch in flight — broadcast immediately, adding zero
	// latency (the zero-contention path is still the paper's 2-step commit).
	flushIdle flushReason = iota
	// flushSize: the maxBatchTxns cap was reached.
	flushSize
	// flushBytes: the maxBatchBytes cap was reached.
	flushBytes
	// flushWindow: the maxBatchDelay window expired.
	flushWindow
	// flushDrain: the previous batch self-delivered with entries pending.
	flushDrain
	numFlushReasons
)

// coalescer accumulates validated, lease-covered local write-sets and
// broadcasts them as applyWSBatchMsg. At most one batch per replica is in
// flight at a time (outstanding tracks broadcast-but-not-self-delivered
// batches); while one is, later write-sets coalesce until a cap or the
// maxBatchDelay window flushes them. Broadcasting under mu keeps this
// replica's batches in enqueue order on the causal URB channel.
type coalescer struct {
	r *Replica

	mu         sync.Mutex
	pending    []applyWSEntry
	pendingCls [][]lease.ConflictClass
	// pendingAt records each entry's enqueue time (parallel to pending) for
	// the coalescer-residency histogram. It lives here, not on the wire
	// entry: applyWSEntry is what travels and is WAL-logged, and local
	// timestamps must do neither.
	pendingAt    []time.Time
	pendingBytes int
	outstanding  int
	timer        *time.Timer
	timerGen     uint64
	stopped      bool
}

func newCoalescer(r *Replica) *coalescer {
	return &coalescer{r: r}
}

// enqueue hands over a validated write-set. The caller must already hold the
// in-flight reservation for cls and have registered a waiter for e.TxnID;
// the coalescer owns both from here — they are released/resolved at
// self-delivery of the batch, or failed if the batch cannot be broadcast.
func (c *coalescer) enqueue(e applyWSEntry, cls []lease.ConflictClass) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || !c.r.primary.Load() {
		c.failLocked([]applyWSEntry{e}, [][]lease.ConflictClass{cls}, c.entryErr())
		return
	}
	c.pending = append(c.pending, e)
	c.pendingCls = append(c.pendingCls, cls)
	c.pendingAt = append(c.pendingAt, time.Now())
	c.pendingBytes += approxWSBytes(e.WS)
	c.r.qCoalescer.Set(int64(len(c.pending)))
	switch {
	case c.outstanding == 0:
		c.flushLocked(flushIdle)
	case len(c.pending) >= maxBatchTxns:
		c.flushLocked(flushSize)
	case c.pendingBytes >= maxBatchBytes:
		c.flushLocked(flushBytes)
	case c.timer == nil:
		gen := c.timerGen
		c.timer = time.AfterFunc(maxBatchDelay, func() { c.window(gen) })
	}
}

// window is the maxBatchDelay timer callback.
func (c *coalescer) window(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || gen != c.timerGen || len(c.pending) == 0 {
		return
	}
	c.timer = nil
	c.flushLocked(flushWindow)
}

// batchDelivered runs after a batch originated by this replica has been
// applied locally (self-delivery): the pipe is open for the next batch.
func (c *coalescer) batchDelivered() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outstanding > 0 {
		c.outstanding--
	}
	if !c.stopped && c.outstanding == 0 && len(c.pending) > 0 {
		c.flushLocked(flushDrain)
	}
}

// flushLocked broadcasts the pending queue as one batch. On a broadcast
// error its entries are failed.
func (c *coalescer) flushLocked(reason flushReason) {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.timerGen++
	n := len(c.pending)
	entries := append([]applyWSEntry(nil), c.pending...)
	cls := append([][]lease.ConflictClass(nil), c.pendingCls...)
	now := time.Now()
	for _, at := range c.pendingAt {
		c.r.stageCoalescer.Observe(now.Sub(at))
	}
	c.pending, c.pendingCls, c.pendingAt = c.pending[n:], c.pendingCls[n:], c.pendingAt[n:]
	c.pendingBytes = 0
	c.r.qCoalescer.Set(0)
	c.r.batchSizes.Observe(n)
	c.r.flushCount[reason].Inc()
	c.r.batchedTxns.Add(int64(n))
	c.outstanding++
	if err := c.r.ep.URBroadcast(&applyWSBatchMsg{Entries: entries}); err != nil {
		c.outstanding--
		c.failLocked(entries, cls, c.broadcastErr(err))
		return
	}
	ids := make([]stm.TxnID, n)
	for i, e := range entries {
		ids[i] = e.TxnID
	}
	c.r.markSent(ids, now)
}

func (c *coalescer) broadcastErr(err error) error {
	if errors.Is(err, gcs.ErrStopped) {
		return ErrStopped
	}
	return ErrEjected
}

// fail drops every pending entry with err and forgets outstanding batches
// (their self-delivery will never arrive). The coalescer stays usable: after
// a rejoin the replica commits again.
func (c *coalescer) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries, cls := c.pending, c.pendingCls
	c.pending, c.pendingCls, c.pendingAt, c.pendingBytes = nil, nil, nil, 0
	c.r.qCoalescer.Set(0)
	c.outstanding = 0
	c.timerGen++
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	c.failLocked(entries, cls, err)
}

// stop fails pending entries and rejects all future enqueues (Close).
func (c *coalescer) stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.fail(ErrStopped)
}

// failLocked drops entries with err, releasing their reservations.
func (c *coalescer) failLocked(entries []applyWSEntry, cls [][]lease.ConflictClass, err error) {
	for i, e := range entries {
		c.r.inflight.release(cls[i])
		c.r.resolveWaiter(e.TxnID, err)
	}
}

func (c *coalescer) entryErr() error {
	if c.stopped {
		return ErrStopped
	}
	return ErrEjected
}

// approxWSBytes estimates a write-set's wire footprint for the byte-cap
// trigger. It is deliberately cheap, not exact: framing and non-trivial
// values are approximated by a flat constant.
func approxWSBytes(ws stm.WriteSet) int {
	n := 0
	for _, e := range ws {
		n += 32 + len(e.Box)
		switch v := e.Value.(type) {
		case string:
			n += len(v)
		case []byte:
			n += len(v)
		default:
			n += 32
		}
	}
	return n
}
