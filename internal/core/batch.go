package core

import (
	"errors"
	"sort"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// This file implements the group-commit pipeline: local committers reserve
// their conflict classes in a striped in-flight table (so only intersecting
// committers serialize), hand their validated write-sets to a per-replica
// coalescer that URB-broadcasts them in batches (one message, one wire frame
// and one ack round amortized over many transactions), and UR-delivered
// batches are applied by a small worker pool that runs disjoint write-sets
// concurrently while preserving delivery order for intersecting ones.

// maxBatchBytes caps the approximate payload bytes coalesced into one batch.
const maxBatchBytes = 1 << 20

// BatchConfig tunes the group-commit coalescer and the parallel apply stage.
type BatchConfig struct {
	// MaxTxns caps the write-sets coalesced into one batch. Default 128.
	MaxTxns int
	// MaxDelay bounds how long a pending write-set may wait for
	// co-travelers while an earlier batch is still in flight. It never
	// delays an idle pipe: the first write-set after a quiescent period is
	// broadcast immediately. Default 200µs.
	MaxDelay time.Duration
	// ApplyWorkers sizes the parallel apply pool. Default 4.
	ApplyWorkers int
}

func (c *BatchConfig) fillDefaults() {
	if c.MaxTxns <= 0 {
		c.MaxTxns = 128
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	if c.ApplyWorkers <= 0 {
		c.ApplyWorkers = 4
	}
}

// --- Striped in-flight tracking -----------------------------------------------

const inflightStripes = 64

// inflightTable tracks, per conflict class, how many local write-sets are
// past validation but not yet applied (queued in the coalescer, in flight on
// the URB, or waiting in the apply stage). Local validation must not run
// while an intersecting write-set is in that window, or two transactions
// sharing a lease could both validate against the pre-apply state (lost
// update). The table is striped by conflict class so that disjoint local
// committers synchronize on different locks (DESIGN.md decision #4,
// relaxed): reserve atomically checks the caller's classes and marks its
// write-set in flight, so no intersecting committer can slip between the
// check and the reservation.
type inflightTable struct {
	stripes [inflightStripes]inflightStripe
}

type inflightStripe struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count map[lease.ConflictClass]int
}

func newInflightTable() *inflightTable {
	t := &inflightTable{}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.cond = sync.NewCond(&s.mu)
		s.count = make(map[lease.ConflictClass]int)
	}
	return t
}

func stripeOf(c lease.ConflictClass) int { return int(uint64(c) % inflightStripes) }

// stripeSet returns the sorted, deduplicated stripe indices touched by the
// given class sets. Sorting gives a global lock order across stripes.
func stripeSet(sets ...[]lease.ConflictClass) []int {
	var mask [inflightStripes]bool
	out := make([]int, 0, 8)
	for _, set := range sets {
		for _, c := range set {
			if i := stripeOf(c); !mask[i] {
				mask[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// reserve blocks until no in-flight write-set intersects wait, then marks
// add as in flight. The check and the reservation are atomic across every
// involved stripe. It returns false — reserving nothing — when alive reports
// the replica ejected or stopped.
func (t *inflightTable) reserve(wait, add []lease.ConflictClass, alive func() bool) bool {
	involved := stripeSet(wait, add)
	for {
		for _, i := range involved {
			t.stripes[i].mu.Lock()
		}
		if !alive() {
			for _, i := range involved {
				t.stripes[i].mu.Unlock()
			}
			return false
		}
		blocked := -1
		for _, c := range wait {
			if t.stripes[stripeOf(c)].count[c] > 0 {
				blocked = stripeOf(c)
				break
			}
		}
		if blocked < 0 {
			for _, c := range add {
				t.stripes[stripeOf(c)].count[c]++
			}
			for _, i := range involved {
				t.stripes[i].mu.Unlock()
			}
			return true
		}
		// Wait on the blocking stripe only; holding the other stripe locks
		// while waiting would stall their releases.
		for _, i := range involved {
			if i != blocked {
				t.stripes[i].mu.Unlock()
			}
		}
		t.stripes[blocked].cond.Wait()
		t.stripes[blocked].mu.Unlock()
	}
}

// release drops a reservation taken by reserve. It tolerates classes already
// absent (the table may have been reset by an ejection in between).
func (t *inflightTable) release(classes []lease.ConflictClass) {
	for _, i := range stripeSet(classes) {
		s := &t.stripes[i]
		s.mu.Lock()
		for _, c := range classes {
			if stripeOf(c) != i {
				continue
			}
			if s.count[c] <= 1 {
				delete(s.count, c)
			} else {
				s.count[c]--
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// reset clears every reservation and wakes all waiters (ejection, state
// install): pending write-sets have been failed and waiting committers must
// re-check alive.
func (t *inflightTable) reset() {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		s.count = make(map[lease.ConflictClass]int)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// --- Commit coalescer ----------------------------------------------------------

// flushReason says what triggered a batch broadcast.
type flushReason int

const (
	// flushIdle: no batch in flight — broadcast immediately, adding zero
	// latency (the zero-contention path is still the paper's 2-step commit).
	flushIdle flushReason = iota
	// flushSize: the MaxTxns cap was reached.
	flushSize
	// flushBytes: the maxBatchBytes cap was reached.
	flushBytes
	// flushWindow: the MaxDelay window expired.
	flushWindow
	// flushDrain: the previous batch self-delivered with entries pending.
	flushDrain
	numFlushReasons
)

// coalescer accumulates validated, lease-covered local write-sets and
// broadcasts them as applyWSBatchMsg. At most one batch per replica is in
// flight at a time (outstanding tracks broadcast-but-not-self-delivered
// batches); while one is, later write-sets coalesce until a cap or the
// MaxDelay window flushes them. Broadcasting under mu keeps this replica's
// batches in enqueue order on the causal URB channel.
type coalescer struct {
	r   *Replica
	cfg BatchConfig

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

func newCoalescer(r *Replica, cfg BatchConfig) *coalescer {
	return &coalescer{r: r, cfg: cfg}
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
	case len(c.pending) >= c.cfg.MaxTxns:
		c.flushLocked(flushSize)
	case c.pendingBytes >= maxBatchBytes:
		c.flushLocked(flushBytes)
	case c.timer == nil:
		gen := c.timerGen
		c.timer = time.AfterFunc(c.cfg.MaxDelay, func() { c.window(gen) })
	}
}

// window is the MaxDelay timer callback.
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

// --- Parallel apply stage -------------------------------------------------------

// applyTask is one unit of the apply stage: a UR-delivered batch from one
// sender.
type applyTask struct {
	classes []lease.ConflictClass // union over the batch, deduplicated
	sender  transport.ID
	run     func()

	pending    int // unfinished predecessors
	dependents []*applyTask
	done       bool
}

// applyScheduler executes write-set applications on a small worker pool, off
// the GCS dispatcher goroutine. Tasks whose conflict classes intersect — and
// tasks from the same sender (per-sender causal order) — execute in
// submission (delivery) order; disjoint tasks run concurrently. The
// dispatcher calls drain to restore fully synchronous delivery semantics
// before handling anything that reads or replaces the store: lease
// transfers, view changes, state snapshots and installs.
type applyScheduler struct {
	mu         sync.Mutex
	work       *sync.Cond // a parked worker: one per task that becomes ready
	idle       *sync.Cond // drainers: the last task finished
	byClass    map[lease.ConflictClass]*applyTask
	bySender   map[transport.ID]*applyTask
	ready      []*applyTask
	inFlight   int // submitted but not finished
	running    int
	maxRunning int
	tasksDone  int64
	closed     bool
	workers    sync.WaitGroup // close waits for every worker to exit
}

func newApplyScheduler(workers int) *applyScheduler {
	s := &applyScheduler{
		byClass:  make(map[lease.ConflictClass]*applyTask),
		bySender: make(map[transport.ID]*applyTask),
	}
	s.work = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	s.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit queues a task behind the most recent unfinished task of each of its
// conflict classes and of its sender. Called from the dispatcher only, so
// per-sender submission order is delivery order.
func (s *applyScheduler) submit(t *applyTask) {
	s.mu.Lock()
	depend := func(prev *applyTask) {
		if prev == nil || prev.done || prev == t {
			return
		}
		for _, d := range prev.dependents {
			if d == t {
				return
			}
		}
		prev.dependents = append(prev.dependents, t)
		t.pending++
	}
	for _, c := range t.classes {
		depend(s.byClass[c])
		s.byClass[c] = t
	}
	depend(s.bySender[t.sender])
	s.bySender[t.sender] = t
	s.inFlight++
	if t.pending == 0 {
		s.ready = append(s.ready, t)
		s.work.Signal()
	}
	s.mu.Unlock()
}

func (s *applyScheduler) worker() {
	defer s.workers.Done()
	s.mu.Lock()
	for {
		for len(s.ready) == 0 {
			if s.closed && s.inFlight == 0 {
				s.mu.Unlock()
				return
			}
			s.work.Wait()
		}
		t := s.ready[len(s.ready)-1]
		s.ready = s.ready[:len(s.ready)-1]
		s.running++
		if s.running > s.maxRunning {
			s.maxRunning = s.running
		}
		s.mu.Unlock()

		t.run()

		s.mu.Lock()
		s.running--
		s.tasksDone++
		t.done = true
		for _, c := range t.classes {
			if s.byClass[c] == t {
				delete(s.byClass, c)
			}
		}
		if s.bySender[t.sender] == t {
			delete(s.bySender, t.sender)
		}
		for _, d := range t.dependents {
			d.pending--
			if d.pending == 0 {
				s.ready = append(s.ready, d)
				s.work.Signal()
			}
		}
		t.dependents = nil
		if s.inFlight--; s.inFlight == 0 {
			s.idle.Broadcast()
			if s.closed {
				s.work.Broadcast() // the queue ran dry: parked workers exit
			}
		}
	}
}

// drain blocks until every submitted task has finished. This is the barrier
// the dispatcher uses before store-reading upcalls: with it, everything
// delivered before the barrier is fully applied — exactly the semantics of
// applying inline on the dispatcher.
func (s *applyScheduler) drain() {
	s.mu.Lock()
	for s.inFlight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// close lets the workers run the queue dry and returns once every one of
// them has exited: after it, no task is running and none ever will. The
// caller must have stopped all submitters first (Close shuts the GCS
// dispatcher down before calling this).
func (s *applyScheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.work.Broadcast()
	s.idle.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}

// stats returns (tasks executed, max concurrently running).
func (s *applyScheduler) stats() (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasksDone, s.maxRunning
}

// backlog returns the number of submitted tasks not yet finished (a gauge).
func (s *applyScheduler) backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inFlight
}
