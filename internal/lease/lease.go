// Package lease implements the Asynchronous Lease Manager, the core of the
// ALC protocol (§4.2–§4.4 of the paper).
//
// A lease grants a replica temporary exclusive rights over a set of conflict
// classes. Unlike classic leases, asynchronous leases are detached from time:
// once established, a lease is held until a conflicting request from another
// replica arrives (lease retention), and the mutual exclusion is driven
// purely by the totally ordered delivery of lease requests, making the
// scheme implementable in any system where atomic broadcast is.
//
// Lease requests are disseminated via Optimistic Atomic Broadcast and
// enqueued at every replica, per conflict class, in the TO-delivery order —
// a replicated FIFO lock table (CQ). A request is enabled (the lease is
// held) when it heads every queue of its classes. Lease releases travel via
// causally ordered Uniform Reliable Broadcast and dequeue the released
// requests everywhere; because every pair of conflicting requests is ordered
// identically at all replicas and releases are causally ordered with the
// write-sets committed under them, conflicting transactions certify in the
// same relative order cluster-wide (§4.3).
//
// Fairness: as soon as a conflicting remote request is delivered, the local
// conflicting requests become blocked — new transactions can no longer be
// associated with them — so a remote requester cannot starve (§4.2). With
// the optimistic-delivery optimization (§4.5, Algorithm 4) the blocking and
// the release are triggered already at Opt-delivery, fully overlapping the
// lease transfer with the request's total-ordering.
//
// Deadlocks from transactions that change their data-set across re-executions
// (§4.4) are handled two ways: a deadlock-avoidance piggyback (the
// replacement request atomically frees the previously held lease in the same
// totally ordered step), and an optional conservative local wait-for-graph
// detector whose victims voluntarily release their own requests — always
// safe, since an owner may free its own lease at any time.
package lease

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/metrics"
	"github.com/alcstm/alc/internal/trace"
	"github.com/alcstm/alc/internal/transport"
)

// Errors returned by GetLease.
var (
	// ErrNotPrimary is returned when the replica has been ejected from the
	// primary component: no new leases can be established (the paper's ⊥).
	ErrNotPrimary = errors.New("lease: not in primary component")
	// ErrDeadlock is returned when the local request was chosen as a
	// deadlock victim and must be retried.
	ErrDeadlock = errors.New("lease: deadlock victim, retry")
	// ErrStopped is returned after Close.
	ErrStopped = errors.New("lease: manager stopped")
)

// RequestID uniquely identifies a lease request: issuing process and a
// process-local sequence number.
type RequestID struct {
	Proc transport.ID
	Seq  uint64
}

func (id RequestID) String() string { return fmt.Sprintf("lease(%d:%d)", id.Proc, id.Seq) }

// Request is the OA-broadcast lease request (wire type).
type Request struct {
	ID      RequestID
	Classes []ConflictClass
	// Wildcard requests a lease on the whole set of conflict classes
	// (§4.4's deterministic fallback): it conflicts with every request.
	Wildcard bool
	// FreeFirst carries piggybacked releases (§4.4 deadlock avoidance): at
	// TO-delivery these requests are dequeued before this one is enqueued,
	// making the lease replacement atomic in the total order.
	FreeFirst []RequestID
	// Payload is an opaque replication-manager attachment (§4.5
	// optimization (c): the transaction's read- and write-set piggybacked
	// on the lease request).
	Payload any
}

// Freed is the UR-broadcast lease release (wire type).
type Freed struct {
	IDs []RequestID
	// Resent marks releases sent again after an ejection (HandleViewChange):
	// their requests were TO-delivered everywhere before, so a replica that
	// no longer has one has already applied its release.
	Resent bool
}

// Broadcaster is the slice of the GCS the lease manager sends through.
type Broadcaster interface {
	OABroadcast(body any) error
	URBroadcast(body any) error
}

// Config parametrizes a Manager.
type Config struct {
	// Mapper maps data items to conflict classes.
	Mapper Mapper
	// OptimisticFree enables the §4.5 optimization (b): conflicting local
	// leases are released already at the Opt-delivery of a remote request,
	// overlapping the release with the request's final ordering.
	OptimisticFree bool
	// DeadlockDetection enables the conservative local wait-for-graph
	// detector (§4.4). Victims release their own requests and retry.
	DeadlockDetection bool
	// Tracer, when non-nil, receives a KindLease event per lease-table state
	// transition (enqueue, block, free, purge, association changes).
	// Diagnostics only: emits run under the manager's lock and sinks must
	// not call back in.
	Tracer *trace.Tracer
}

// Stats exposes lease-manager counters.
type Stats struct {
	Requested int64 // lease requests OA-broadcast
	Reused    int64 // transactions served by an already-held lease
	Acquired  int64 // fresh lease requests that reached enablement (one OAB each)
	Stolen    int64 // enabled local leases blocked (and so lost) to a remote request
	Freed     int64 // lease requests released by this replica
	Deadlocks int64 // local deadlock victims
	Waiting   int64 // acquisitions currently blocked in waitEnabled (gauge)
}

// ReuseRate is the fraction of lease establishments served without
// communication: reuses / (reuses + fresh acquisitions). This is the placement
// win metric: sending each item set to one replica drives it toward 1 on hot
// conflict classes.
func (s Stats) ReuseRate() float64 {
	total := s.Reused + s.Acquired
	if total == 0 {
		return 0
	}
	return float64(s.Reused) / float64(total)
}

// reqState is a lease request's replicated queue state plus (for local
// requests) the owner-side bookkeeping.
type reqState struct {
	req      *Request
	local    bool
	enqueued bool // TO-delivered and present in the class queues
	blocked  bool // no new transactions may join (fairness, §4.2)
	freed    bool // released (dequeued) or release broadcast pending
	aborted  bool // deadlock victim
	active   int  // owner-side: transactions currently associated
	// replacePending marks a local request whose release is piggybacked on
	// an in-flight replacement request (§4.4): the ordinary drain-release
	// path must not race with the piggybacked one.
	replacePending bool
	// fired marks a §4.5(c) payload request handed to the PayloadHandler;
	// payloadDone that the handler returned (the payload is resolved here).
	// ownerFreed marks a payload request whose owner's release was delivered
	// before it fired here: the owner fires before it releases, so it is due
	// here too (see enabledPayloadsLocked).
	fired, payloadDone, ownerFreed bool
	// cycleSince is when this waiting request was first observed inside a
	// wait-for cycle (deadlock detection's persistence gate).
	cycleSince time.Time
	// pos is the request's position in the enqueue (TO-delivery) order —
	// identical at every replica — used to order wildcard requests against
	// everything else.
	pos uint64
	// headCount is the number of this request's class queues it currently
	// heads; the request is enabled when headCount equals its class count
	// (incrementally maintained so enablement checks are O(1) even for
	// requests spanning thousands of classes).
	headCount int
	// ahead is a wildcard request's count of older live requests: it is
	// enabled when the count reaches zero.
	ahead int
}

// Manager is one replica's Lease Manager.
type Manager struct {
	mu   sync.Mutex
	cond *sync.Cond

	self    transport.ID
	cfg     Config
	bcast   Broadcaster
	handler PayloadHandler

	queues map[ConflictClass][]*reqState
	// reqs finds a request by ID. No acquisition or delivery path ranges over
	// it: asynchronous leases are retained, so it is as large as the working
	// set. "Which requests …?" is answered from the class queues and the
	// small sets below, kept at the few points where a request changes state,
	// so a lease rotation costs O(classes of the request).
	reqs     map[RequestID]*reqState
	wild     []*reqState // live wildcard requests, oldest first
	live     int         // live (enqueued, unreleased) requests, wildcards included
	inflight []*reqState // local requests not yet TO-delivered
	draining []*reqState // local blocked requests not yet released
	waiting  []*reqState // local enqueued requests not yet seen enabled
	// ripe holds the requests that may have become enabled since the payload
	// callbacks were last collected.
	ripe []*reqState
	// ghosts are local requests released here before their release was
	// delivered (maybeFreeAllLocked, deadlock victims): no payload behind one
	// fires until the release self-delivers, so a payload is only ever
	// certified on delivered events — the same ones at every replica.
	ghosts []*reqState
	// unresolved holds the TO-delivered payload requests not yet resolved
	// here: neither handed to the handler and returned, nor dropped by a
	// purge. ResolvedTO reads its oldest position.
	unresolved []*reqState
	// viewPending holds every payload back from a view change (or a state
	// transfer) until ConfirmView: the view's coordinator installs it, purge
	// included, before its members do, and a view no quorum installs is
	// abandoned — a payload its purge enabled would be applied here alone.
	viewPending bool
	// poking is set while the deadlock poke goroutine runs (at most one);
	// closed stops it and pokes lets Close wait for it.
	poking bool
	closed chan struct{}
	pokes  sync.WaitGroup

	earlyFreed       map[RequestID]bool // releases delivered before their request
	nextSeq          uint64
	enqueueSeq       uint64 // TO-delivery order counter (replica-consistent)
	inPrimary        bool
	stopped          bool
	lastDeadlockScan time.Time

	nRequested metrics.Counter
	nReused    metrics.Counter
	nAcquired  metrics.Counter
	nStolen    metrics.Counter
	nFreed     metrics.Counter
	nDeadlocks metrics.Counter
	nWaiting   metrics.Gauge
}

// PayloadHandler receives each request that carries a piggybacked payload
// (§4.5 optimization (c)) once, at the moment the request becomes enabled on
// delivered events, with the request's TO position — the identity every
// replica agrees on. Called on the delivering goroutine with the manager's
// lock released; transactions joined to the request are held until it
// returns. Until SetPayloadHandler installs one, a payload resolves with no
// effect.
type PayloadHandler func(req *Request, pos uint64)

// NewManager creates a lease manager for process self.
func NewManager(self transport.ID, bcast Broadcaster, cfg Config) *Manager {
	m := &Manager{
		self:       self,
		cfg:        cfg,
		bcast:      bcast,
		queues:     make(map[ConflictClass][]*reqState),
		reqs:       make(map[RequestID]*reqState),
		handler:    func(*Request, uint64) {},
		earlyFreed: make(map[RequestID]bool),
		inPrimary:  true,
		closed:     make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// tracef emits one diagnostic event when tracing is configured. Callers hold
// the manager lock.
func (m *Manager) tracef(format string, args ...any) {
	m.cfg.Tracer.Emitf(m.self, trace.KindLease, 0, format, args...)
}

// SetPayloadHandler installs the enabled-request payload callback. Install it
// before the first delivery: a request is reported when it becomes enabled,
// not for having been enabled earlier.
func (m *Manager) SetPayloadHandler(h PayloadHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handler = h
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Requested: m.nRequested.Value(),
		Reused:    m.nReused.Value(),
		Acquired:  m.nAcquired.Value(),
		Stolen:    m.nStolen.Value(),
		Freed:     m.nFreed.Value(),
		Deadlocks: m.nDeadlocks.Value(),
		Waiting:   m.nWaiting.Value(),
	}
}

// Close releases every waiter with ErrStopped and stops the deadlock poke.
func (m *Manager) Close() {
	m.mu.Lock()
	if !m.stopped {
		m.stopped = true
		close(m.closed)
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.pokes.Wait()
}

// --- Acquisition (application side) ------------------------------------------

// The acquisition and reuse calls below take a transaction's conflict
// classes, computed once per attempt by the caller with the manager's Mapper
// (sorted and deduplicated, as Mapper.Classes returns them). A request keeps
// the slice it was acquired with: the caller must not modify it afterwards.
// GetLease and TryReuse also take a data set, for callers without classes at
// hand (the lease-layer probes of benchmark/, tests).

// GetLease establishes a lease on the conflict classes of the given data
// items, blocking until the lease is held. It is GetLeaseClasses over the
// data set's classes.
func (m *Manager) GetLease(dataSet []string) (RequestID, error) {
	return m.GetLeaseClasses(m.cfg.Mapper.Classes(dataSet))
}

// GetLeaseClasses establishes a lease on the given conflict classes,
// blocking until the lease is held. It implements the paper's getLease: an
// existing unblocked local request covering the classes is reused without
// any communication (lease retention); otherwise a new request is
// OA-broadcast and the call waits for it to reach the head of every class
// queue. Returns the request ID to pass to Finished, or ErrNotPrimary (the
// paper's ⊥), ErrDeadlock, or ErrStopped.
func (m *Manager) GetLeaseClasses(classes []ConflictClass) (RequestID, error) {
	return m.acquire(&Request{Classes: classes}, RequestID{}, true)
}

// GetLeaseReplacing is GetLeaseClasses with the §4.4 deadlock-avoidance
// piggyback: the previously held request old is released atomically (in the
// total order) right before the new request is enqueued. The caller must be
// the only transaction associated with old.
func (m *Manager) GetLeaseReplacing(classes []ConflictClass, old RequestID) (RequestID, error) {
	return m.acquire(&Request{Classes: classes}, old, false)
}

// GetLeaseWithPayload acquires a fresh lease request carrying an opaque
// replication-manager payload (§4.5 optimization (c): the transaction's
// read- and write-set ride on the lease request, and every replica certifies
// the transaction the moment the lease is established). Payload requests are
// never satisfied by reuse: the payload must travel.
func (m *Manager) GetLeaseWithPayload(classes []ConflictClass, payload any) (RequestID, error) {
	return m.acquire(&Request{Classes: classes, Payload: payload}, RequestID{}, false)
}

// acquire is the one acquisition path behind the GetLease forms: with reuse,
// the transaction joins a local request that can still admit it; otherwise
// req is OA-broadcast — releasing old, when it is a live local request, in
// the same totally ordered step — and the call waits for it to be enabled.
func (m *Manager) acquire(req *Request, old RequestID, reuse bool) (RequestID, error) {
	m.mu.Lock()
	if err := m.usableLocked(); err != nil {
		m.mu.Unlock()
		return RequestID{}, err
	}
	if reuse {
		if st := m.joinableLocked(req.Classes); st != nil {
			defer m.mu.Unlock()
			st.active++
			m.nReused.Inc()
			if m.cfg.Tracer != nil {
				m.tracef("join %v active=%d", st.req.ID, st.active)
			}
			return m.awaitLocked(st)
		}
	}

	var replaced *reqState
	if old != (RequestID{}) {
		if replaced = m.reqs[old]; replaced != nil && replaced.local {
			// The replacement transfers this transaction's association to
			// the new request; mark the old one unusable for reuse and
			// reserve its release for the piggyback.
			replaced.active--
			m.setBlockedLocked(replaced)
			replaced.replacePending = true
			req.FreeFirst = []RequestID{old}
		}
	}

	m.nextSeq++
	req.ID = RequestID{Proc: m.self, Seq: m.nextSeq}
	st := &reqState{req: req, local: true, active: 1}
	m.reqs[req.ID] = st
	m.inflight = append(m.inflight, st)
	m.nRequested.Inc()
	m.tracef("request %v freeFirst=%v", req.ID, req.FreeFirst)
	m.mu.Unlock()

	err := m.bcast.OABroadcast(req)

	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		delete(m.reqs, req.ID)
		m.inflight = without(m.inflight, st)
		if req.FreeFirst != nil {
			// The piggybacked release never left: let the old request
			// drain-release through the ordinary path.
			replaced.replacePending = false
			m.maybeFreeAllLocked()
		}
		return RequestID{}, fmt.Errorf("lease: broadcast request: %w", err)
	}
	id, err := m.awaitLocked(st)
	if err == nil {
		m.nAcquired.Inc()
	}
	return id, err
}

// awaitLocked waits for st to be enabled on behalf of one transaction already
// associated with it, and undoes the association when the wait fails: the
// caller's transaction will not run under the request.
func (m *Manager) awaitLocked(st *reqState) (RequestID, error) {
	if err := m.waitEnabledLocked(st); err != nil {
		m.tracef("acquire %v failed: %v", st.req.ID, err)
		if st.active > 0 {
			st.active--
		}
		m.maybeFreeAllLocked()
		m.gcLocked(st)
		return RequestID{}, err
	}
	return st.req.ID, nil
}

// gcLocked drops a local request that is released and fully drained.
func (m *Manager) gcLocked(st *reqState) {
	if st.local && st.freed && st.active == 0 {
		delete(m.reqs, st.req.ID)
	}
}

// setBlockedLocked closes a local request to new transactions; from here on
// it is a release candidate (maybeFreeAllLocked).
func (m *Manager) setBlockedLocked(st *reqState) {
	if !st.blocked {
		st.blocked = true
		m.draining = append(m.draining, st)
	}
}

// without removes st from a small ordered set.
func without(set []*reqState, st *reqState) []*reqState {
	return slices.DeleteFunc(set, func(x *reqState) bool { return x == st })
}

// waitEnabledLocked blocks until st is held (enabled, and its payload, if
// any, resolved here), the replica leaves the primary component, or st is
// aborted as a deadlock victim.
func (m *Manager) waitEnabledLocked(st *reqState) error {
	m.nWaiting.Inc()
	defer m.nWaiting.Dec()
	for {
		switch {
		case m.stopped:
			return ErrStopped
		case !m.inPrimary:
			return ErrNotPrimary
		case st.aborted:
			return ErrDeadlock
		case st.freed:
			// Released while waiting (view change or replacement race).
			return ErrDeadlock
		case m.heldLocked(st):
			return nil
		}
		m.cond.Wait()
	}
}

// addWaitingLocked records a local request that waits for enablement and, the
// first time the set fills, starts the manager's one deadlock poke: scans are
// event-gated, so a cycle completed during a quiet period would otherwise go
// unnoticed. The poke stops when the set drains or the manager closes.
func (m *Manager) addWaitingLocked(st *reqState) {
	m.waiting = append(m.waiting, st)
	if !m.poking && !m.stopped {
		m.poking = true
		m.pokes.Add(1)
		go m.poke()
	}
}

func (m *Manager) poke() {
	defer m.pokes.Done()
	t := time.NewTicker(_deadlockPoke)
	defer t.Stop()
	for {
		select {
		case <-m.closed:
			return
		case <-t.C:
		}
		m.mu.Lock()
		if m.pruneWaitingLocked(); len(m.waiting) == 0 {
			m.poking = false
			m.mu.Unlock()
			return
		}
		m.detectDeadlockLocked()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// _deadlockPoke is the poke's period.
const _deadlockPoke = 25 * time.Millisecond

// payloadPendingLocked reports whether st carries a payload this replica has
// not resolved yet: no transaction may run under it until it is, or a joined
// transaction could certify against a store still missing the payload.
func (m *Manager) payloadPendingLocked(st *reqState) bool {
	return st.req.Payload != nil && !st.payloadDone
}

// heldLocked reports whether transactions may run under st: it is enabled
// and its payload, if any, is resolved.
func (m *Manager) heldLocked(st *reqState) bool {
	return m.enabledLocked(st) && !m.payloadPendingLocked(st)
}

// --- Reuse: the class index ---------------------------------------------------

// covers reports whether the request's classes include all of classes.
func (st *reqState) covers(classes []ConflictClass) bool {
	return st.req.Wildcard || subset(classes, st.req.Classes)
}

// admits reports whether a new local transaction on classes may be
// associated with the request: local, unblocked, unreleased and covering.
func (st *reqState) admits(classes []ConflictClass) bool {
	return st.local && !st.blocked && !st.freed && !st.aborted && st.covers(classes)
}

// joinableLocked returns the oldest local request that admits a transaction
// on classes, or nil: enqueued requests in TO order, then in-flight ones in
// issue order. A covering request is a wildcard or contains the first class,
// so only that class's queue, the live wildcards and the in-flight set can
// hold one. (An empty data set — the replication manager never asks for one,
// an update transaction has a write-set — is covered by wildcards and
// in-flight requests only.)
func (m *Manager) joinableLocked(classes []ConflictClass) *reqState {
	var best *reqState
	for _, ordered := range [2][]*reqState{m.firstQueueLocked(classes), m.wild} {
		for _, st := range ordered {
			if st.admits(classes) {
				if best == nil || st.pos < best.pos {
					best = st
				}
				break
			}
		}
	}
	if best != nil {
		return best
	}
	for _, st := range m.inflight {
		if st.admits(classes) {
			return st
		}
	}
	return nil
}

func (m *Manager) firstQueueLocked(classes []ConflictClass) []*reqState {
	if len(classes) == 0 {
		return nil
	}
	return m.queues[classes[0]]
}

// holderLocked returns the held local request covering classes, or nil.
// An enabled request heads every queue of its classes and an enabled wildcard
// is the oldest live request, so there are two places to look.
func (m *Manager) holderLocked(classes []ConflictClass) *reqState {
	for _, ordered := range [2][]*reqState{m.wild, m.firstQueueLocked(classes)} {
		if len(ordered) > 0 {
			st := ordered[0]
			if st.local && !st.aborted && st.covers(classes) && m.heldLocked(st) {
				return st
			}
		}
	}
	return nil
}

// TryReuse is TryReuseClasses over the data set's conflict classes.
func (m *Manager) TryReuse(dataSet []string) (RequestID, bool) {
	return m.TryReuseClasses(m.cfg.Mapper.Classes(dataSet))
}

// TryReuseClasses attempts a zero-communication acquisition: if this replica
// holds an enabled, unblocked, unreleased request covering the classes, the
// transaction is associated with it immediately (the lease-retention fast
// path). Non-blocking: returns false when no such request exists.
func (m *Manager) TryReuseClasses(classes []ConflictClass) (RequestID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.usableLocked() != nil {
		return RequestID{}, false
	}
	st := m.holderLocked(classes)
	if st == nil || st.blocked {
		return RequestID{}, false
	}
	st.active++
	m.nReused.Inc()
	if m.cfg.Tracer != nil {
		m.tracef("tryreuse %v active=%d", st.req.ID, st.active)
	}
	return st.req.ID, true
}

// HasCoverage reports whether any local request — enabled, queued, or still
// in flight — could serve the classes (unblocked, unreleased, covering).
// The Replication Manager uses it to decide between joining an existing
// acquisition (GetLeaseClasses' reuse path, which waits for enablement) and
// issuing a fresh §4.5(c) payload request: issuing a new request while a
// covering one is pending would block the older one (the fairness rule) and
// defeat lease retention under concurrent local threads.
func (m *Manager) HasCoverage(classes []ConflictClass) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.joinableLocked(classes) != nil
}

// Covers reports whether the given held lease request still covers the
// classes: used by the Replication Manager when a transaction re-executes, to
// decide between retaining the lease (same classes, §4's at-most-one-abort
// guarantee) and replacing it (§4.4).
func (m *Manager) Covers(id RequestID, classes []ConflictClass) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.reqs[id]
	return st != nil && st.local && !st.freed && !st.aborted && st.covers(classes)
}

// ActiveCount returns the number of transactions associated with a local
// request (1 means the caller is alone and replacement is safe).
func (m *Manager) ActiveCount(id RequestID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.reqs[id]; st != nil {
		return st.active
	}
	return 0
}

// Finished implements the paper's finishedXact: it dissociates one
// transaction from the lease request. The lease itself is retained until a
// conflicting remote request blocks it (asynchronous lease semantics).
func (m *Manager) Finished(id RequestID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.reqs[id]
	if st == nil || !st.local {
		return
	}
	if st.active > 0 {
		st.active--
	}
	if m.cfg.Tracer != nil {
		m.tracef("finished %v active=%d blocked=%t", id, st.active, st.blocked)
	}
	m.maybeFreeAllLocked()
	m.gcLocked(st)
}

func (m *Manager) usableLocked() error {
	if m.stopped {
		return ErrStopped
	}
	if !m.inPrimary {
		return ErrNotPrimary
	}
	return nil
}

// enabledLocked implements isEnabled: the request heads every queue of its
// classes and no live wildcard is older; a wildcard request must itself be
// older than every other live request.
func (m *Manager) enabledLocked(st *reqState) bool {
	if !st.enqueued {
		return false
	}
	if st.req.Wildcard {
		return st.ahead == 0
	}
	return st.headCount == len(st.req.Classes) && (len(m.wild) == 0 || m.wild[0].pos > st.pos)
}
