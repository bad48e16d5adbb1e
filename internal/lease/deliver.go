package lease

import (
	"cmp"
	"slices"

	"github.com/alcstm/alc/internal/transport"
)

// The methods in this file are the GCS-facing side of the Lease Manager:
// they are invoked by the replica's GCS handler, sequentially, in delivery
// order.

// HandleRequestTO processes the TO-delivery of a lease request (Algorithm 2
// and the Algorithm 4 split): piggybacked releases are applied first, local
// conflicting requests are blocked (fairness) and scheduled for release, and
// the request is enqueued in every conflict class queue in the total order.
func (m *Manager) HandleRequestTO(req *Request) {
	m.mu.Lock()

	for _, fid := range req.FreeFirst {
		m.applyFreedLocked(fid)
	}

	st := m.reqs[req.ID]
	if st == nil {
		st = &reqState{req: req, local: req.ID.Proc == m.self}
		m.reqs[req.ID] = st
	} else {
		m.inflight = without(m.inflight, st)
	}

	m.enqueueSeq++
	st.pos = m.enqueueSeq
	st.enqueued = true
	if m.earlyFreed[req.ID] {
		// The release overtook the request (cross-protocol reordering of
		// the URB release against the OAB request): the net effect is a
		// request that is enqueued and dequeued in one step. A payload
		// request still fires: its owner released it only after firing it.
		delete(m.earlyFreed, req.ID)
		st.freed = true
		m.ownerFreedLocked(st)
		m.tracef("TO %v pos=%d earlyFreed", req.ID, st.pos)
	} else {
		m.tracef("TO %v pos=%d classes=%v wild=%t", req.ID, st.pos, req.Classes, req.Wildcard)
		if req.Wildcard {
			st.ahead = m.live
			m.wild = append(m.wild, st)
		}
		for _, cc := range req.Classes {
			q := m.queues[cc]
			m.queues[cc] = append(q, st)
			if len(q) == 0 {
				st.headCount++
			}
		}
		m.live++
		if req.Payload != nil {
			m.unresolved = append(m.unresolved, st)
		}
		m.ripenLocked(st)
	}

	// Fairness and liveness: ANY conflicting request — remote (the paper's
	// rule) or a later local one (which cannot reuse this replica's
	// existing requests, e.g. a §4.5(c) payload request or a request with
	// different classes) — blocks the older local requests so they drain
	// and transfer. Without the local half, a replica's own retained lease
	// would starve its own later requests forever.
	m.blockLocalLocked(req, st)

	m.settleAndUnlock()
}

// HandleRequestOpt processes the optimistic delivery of a lease request
// (§4.5 optimization (b), Algorithm 4): conflicting local leases are blocked
// and released immediately, overlapping the release with the request's final
// ordering. Safe even if the optimistic order mismatches the final one — the
// net effect is only an earlier release of leases this replica holds.
func (m *Manager) HandleRequestOpt(req *Request) {
	if !m.cfg.OptimisticFree {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.ID.Proc == m.self {
		return
	}
	m.blockLocalLocked(req, nil)
	m.maybeFreeAllLocked()
}

// HandleFreed processes the UR-delivery of a lease release: every request in
// the message is dequeued from its class queues. A release arriving before
// its request (possible because releases travel on the URB channel while
// requests travel on the OAB channel) is buffered and applied at enqueue
// time.
func (m *Manager) HandleFreed(f *Freed) {
	m.mu.Lock()
	for _, id := range f.IDs {
		if !f.Resent || m.reqs[id] != nil {
			m.applyFreedLocked(id)
		}
		if id.Proc == m.self && len(m.ghosts) > 0 {
			m.confirmGhostLocked(id)
		}
	}
	m.settleAndUnlock()
}

// confirmGhostLocked retires the ghost of a local release that has now
// self-delivered: the payloads it held back are due again.
func (m *Manager) confirmGhostLocked(id RequestID) {
	n := len(m.ghosts)
	m.ghosts = slices.DeleteFunc(m.ghosts, func(g *reqState) bool { return g.req.ID == id })
	if len(m.ghosts) != n {
		m.ripe = append(m.ripe, m.unresolved...)
	}
}

// ownerFreedLocked notes that the owner released st before it fired here: its
// payload fires at the next settle, ahead of every request the release
// ripens (payloads fire in TO order).
func (m *Manager) ownerFreedLocked(st *reqState) {
	if st.req.Payload != nil && !st.fired {
		st.ownerFreed = true
		m.ripe = append(m.ripe, st)
	}
}

// ResolvedTO returns the TO position up to which every payload request has
// been resolved here — handed to the PayloadHandler and returned, or dropped
// by a purge: the oldest unresolved position minus one, else the last
// position delivered. It only moves forward along the delivered history, so
// it is the same at every replica that has delivered the same events; the
// durability tier keys the payload lane on it.
func (m *Manager) ResolvedTO() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneUnresolvedLocked()
	low := m.enqueueSeq
	for _, st := range m.unresolved {
		low = min(low, st.pos-1)
	}
	return low
}

// pruneUnresolvedLocked drops the payload requests that fired and returned, or
// were released without firing here (purged).
func (m *Manager) pruneUnresolvedLocked() {
	m.unresolved = slices.DeleteFunc(m.unresolved, func(st *reqState) bool {
		return st.payloadDone || (st.freed && !st.ownerFreed)
	})
}

// HandleViewChange purges the lease requests of processes excluded from the
// view (Algorithm 3): their leases die with them.
// The fresh list names members readmitted through a state transfer this
// view: their previous incarnation's requests are purged like a crashed
// process's (the reborn process has no knowledge of them).
// Payloads are held until ConfirmView; when any is held, an empty release is
// broadcast, so a delivery confirms the view even if the group is otherwise
// idle.
func (m *Manager) HandleViewChange(members []transport.ID, fresh []transport.ID) {
	in := make(map[transport.ID]bool, len(members))
	for _, p := range members {
		in[p] = true
	}
	reborn := make(map[transport.ID]bool, len(fresh))
	for _, p := range fresh {
		reborn[p] = true
	}
	m.mu.Lock()
	if !m.inPrimary && len(m.ghosts) > 0 {
		// Back from an ejection with this table (a recovered primary, no
		// state transfer): the ejection dropped the outbox, so releases not
		// yet delivered may never have left. Send them again, marked: a
		// replica that already applied one no longer has its request.
		ids := make([]RequestID, len(m.ghosts))
		for i, g := range m.ghosts {
			ids[i] = g.req.ID
		}
		_ = m.bcast.URBroadcast(&Freed{IDs: ids, Resent: true})
	}
	m.inPrimary = true
	m.viewPending = true
	m.purgeLocked(func(p transport.ID) bool { return !in[p] || (reborn[p] && p != m.self) })
	if m.pruneUnresolvedLocked(); len(m.unresolved) > 0 {
		_ = m.bcast.URBroadcast(&Freed{})
	}
	m.settleAndUnlock()
}

// ConfirmView releases the payloads held back since the last view change.
// The replication manager calls it on the first delivery in the new view: a
// message is UR-delivered only once a quorum of the view holds it, so a
// quorum has installed the view, and every member fires what its purge
// enabled, after the same delivered history.
func (m *Manager) ConfirmView() {
	m.mu.Lock()
	if !m.viewPending {
		m.mu.Unlock()
		return
	}
	m.viewPending = false
	m.ripe = append(m.ripe, m.unresolved...)
	m.settleAndUnlock()
}

// HandleEjected marks the replica as outside the primary component: pending
// acquisitions fail with ErrNotPrimary and new ones are refused until the
// replica rejoins.
func (m *Manager) HandleEjected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inPrimary = false
	m.cond.Broadcast()
}

// --- Internal state transitions ----------------------------------------------

// blockLocalLocked implements the fairness rule: once a conflicting request
// is delivered, the local requests it conflicts with (all of them, for a
// wildcard) stop admitting new transactions and are released as soon as they
// drain. A remote request blocking an ENABLED local one is a steal: the lease
// this replica held is migrating away. Only three places can hold a
// conflicting local request: the queues of req's classes, the live wildcards
// and the in-flight set.
func (m *Manager) blockLocalLocked(req *Request, except *reqState) {
	block := func(st *reqState) {
		if st == except || !st.local || st.freed || st.blocked {
			return
		}
		m.noteBlockedLocked(st, req.ID.Proc)
		m.tracef("block %v active=%d by %v", st.req.ID, st.active, req.ID)
		m.setBlockedLocked(st)
	}
	for _, st := range m.inflight {
		if req.Wildcard || st.req.Wildcard || intersects(st.req.Classes, req.Classes) {
			block(st)
		}
	}
	for _, st := range m.wild {
		block(st)
	}
	if req.Wildcard {
		for _, q := range m.queues {
			for _, st := range q {
				block(st)
			}
		}
	}
	for _, cc := range req.Classes {
		for _, st := range m.queues[cc] {
			block(st)
		}
	}
}

// noteBlockedLocked records the first blocking of a local request: when a
// REMOTE request blocks a lease this replica actually held (enabled), the
// lease was stolen — the placement-relevant outcome next to reuse and fresh
// acquisition.
func (m *Manager) noteBlockedLocked(st *reqState, by transport.ID) {
	if by == m.self || !m.enabledLocked(st) {
		return
	}
	m.nStolen.Inc()
}

// applyFreedLocked dequeues one released request, buffering early releases.
func (m *Manager) applyFreedLocked(id RequestID) {
	st := m.reqs[id]
	if st == nil && id.Proc == m.self {
		// A release of this replica's own request is applied locally before
		// it is broadcast; if the state is already gone the request has
		// been fully processed and garbage collected.
		return
	}
	if st == nil || !st.enqueued {
		m.tracef("freed %v buffered early", id)
		m.earlyFreed[id] = true
		return
	}
	if st.freed {
		return
	}
	m.tracef("freed %v applied", id)
	m.ownerFreedLocked(st)
	m.dequeueLocked(st)
	if !st.local {
		delete(m.reqs, id)
	} else {
		m.gcLocked(st)
	}
}

// dequeueLocked marks st released and, if it was live, takes it out of the
// table; whoever it was holding up — the next request in each of its queues,
// younger wildcards, everything behind a wildcard — is noted as ripe.
func (m *Manager) dequeueLocked(st *reqState) {
	wasLive := st.enqueued && !st.freed
	st.freed = true
	if !wasLive {
		return
	}
	m.live--
	for _, cc := range st.req.Classes {
		q := m.queues[cc]
		i := slices.Index(q, st)
		if i < 0 {
			continue
		}
		if q = slices.Delete(q, i, i+1); len(q) == 0 {
			delete(m.queues, cc)
			continue
		}
		m.queues[cc] = q
		if i == 0 {
			// The next request now heads this class queue.
			if q[0].headCount++; q[0].headCount == len(q[0].req.Classes) {
				m.ripenLocked(q[0])
			}
		}
	}
	st.headCount = 0
	for _, w := range m.wild {
		if w.pos > st.pos {
			if w.ahead--; w.ahead == 0 {
				m.ripenLocked(w)
			}
		}
	}
	if st.req.Wildcard {
		m.wild = without(m.wild, st)
		for _, q := range m.queues {
			m.ripenLocked(q[0])
		}
	}
}

// ripenLocked notes that a payload request may just have become enabled: the
// only requests enabledPayloadsLocked has to look at.
func (m *Manager) ripenLocked(st *reqState) {
	if st.req.Payload != nil {
		m.ripe = append(m.ripe, st)
	}
}

// settleAndUnlock runs the reactions to any queue change — releasing drained
// blocked leases, waking waiters — then, with the lock released, the §4.5(c)
// payload callbacks of the requests it enabled, and last wakes the
// transactions held back by those payloads.
func (m *Manager) settleAndUnlock() {
	m.maybeFreeAllLocked()
	m.cond.Broadcast()
	fire := m.enabledPayloadsLocked()
	h := m.handler
	m.mu.Unlock()
	if len(fire) == 0 {
		return
	}

	for _, st := range fire {
		h(st.req, st.pos)
	}
	m.mu.Lock()
	for _, st := range fire {
		st.payloadDone = true
	}
	// A drained payload request waited for its payload to be released.
	m.maybeFreeAllLocked()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// ghostLocked records a local release applied before it is delivered.
func (m *Manager) ghostLocked(st *reqState) {
	m.ghosts = append(m.ghosts, st)
}

// behindGhostLocked reports whether an older ghost conflicts with st: at the
// replicas that have not delivered the ghost's release yet, st is not
// enabled.
func (m *Manager) behindGhostLocked(st *reqState) bool {
	for _, g := range m.ghosts {
		if g.pos < st.pos && (g.req.Wildcard || st.req.Wildcard || intersects(g.req.Classes, st.req.Classes)) {
			return true
		}
	}
	return false
}

// maybeFreeAllLocked releases every local request that is blocked and has
// drained (Algorithm 2's freeLocalLeases completion, generalized: a blocked
// request is released as soon as it is enqueued with no associated
// transactions, whether it was enabled at blocking time or became enabled
// later — otherwise a queued-but-not-yet-enabled blocked request would
// starve the remote requester behind it forever).
func (m *Manager) maybeFreeAllLocked() {
	if !m.inPrimary {
		// Outside the primary component a release cannot be broadcast: the
		// group would keep the request while this table dropped it. It goes
		// when the replica is back, or with the table at a state transfer.
		return
	}
	var batch []RequestID
	keep := m.draining[:0]
	for _, st := range m.draining {
		switch {
		case st.freed: // released through a piggyback or a purge
		case st.enqueued && !st.aborted && !st.replacePending && st.active == 0 &&
			!m.payloadPendingLocked(st):
			// A payload request is released only once it fired here: once
			// broadcast it may fire anywhere, so its owner must not take it
			// back before it is certain to fire everywhere.
			m.dequeueLocked(st)
			m.gcLocked(st)
			m.ghostLocked(st)
			batch = append(batch, st.req.ID)
		default:
			keep = append(keep, st)
		}
	}
	clear(m.draining[len(keep):])
	m.draining = keep
	if len(batch) == 0 {
		return
	}
	slices.SortFunc(batch, func(a, b RequestID) int { return cmp.Compare(a.Seq, b.Seq) })
	m.tracef("free %v", batch)
	m.nFreed.Add(int64(len(batch)))
	// The release is broadcast with the lock held to keep it ordered before
	// any later release; the GCS broadcast call is non-blocking.
	_ = m.bcast.URBroadcast(&Freed{IDs: batch})
	// A local request queued behind a released one may be enabled now: its
	// waiter need not wait for the release to come back from the group.
	m.cond.Broadcast()
}

// enabledPayloadsLocked collects the §4.5(c) payload callbacks due: requests
// enabled on delivered events (enabled, and behind no ghost) and requests
// their owner released before they fired here. Every replica fires a payload
// request exactly when it has delivered the events that enable it, so the
// payloads that touch one conflict class fire in the same order, against the
// same store state, everywhere. Callbacks run in TO order: a request released
// by its owner fires before the requests its release enabled.
func (m *Manager) enabledPayloadsLocked() []*reqState {
	if m.viewPending {
		return nil // ConfirmView looks at every unresolved request
	}
	var out []*reqState
	for _, st := range m.ripe {
		if st.req.Payload == nil || st.fired {
			continue
		}
		if st.ownerFreed || (!st.freed && m.enabledLocked(st) && !m.behindGhostLocked(st)) {
			st.fired = true
			out = append(out, st)
		}
	}
	clear(m.ripe)
	m.ripe = m.ripe[:0]
	slices.SortFunc(out, func(a, b *reqState) int { return cmp.Compare(a.pos, b.pos) })
	return out
}
