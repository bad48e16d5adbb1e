package lease

import (
	"fmt"
	"slices"
	"sort"

	"github.com/alcstm/alc/internal/transport"
)

// State is the serializable lease-table state used for state transfer when a
// replica joins or rejoins the group: the set of enqueued lease requests and
// the per-class queue orders. Owner-local bookkeeping (active transaction
// counts, blocked flags) is not part of the replicated state.
type State struct {
	Requests []*Request
	Queues   map[ConflictClass][]RequestID
	// Pos carries each request's enqueue-order position (parallel to
	// Requests); wildcard ordering depends on it.
	Pos []uint64
	// NextPos seeds the joiner's enqueue counter.
	NextPos uint64
	// Done marks (parallel to Requests) the payload requests whose payload
	// the sender has resolved: their effect is in the transferred store. A
	// payload request not done fires at the joiner once enabled, as
	// everywhere else.
	Done []bool
}

// SnapshotState captures the replicated lease-table state. It is called by
// the GCS on the view coordinator while computing a state transfer.
func (m *Manager) SnapshotState() *State {
	m.mu.Lock()
	defer m.mu.Unlock()

	st := &State{Queues: make(map[ConflictClass][]RequestID, len(m.queues)), NextPos: m.enqueueSeq}
	seen := make(map[RequestID]bool)
	add := func(rs *reqState) {
		if !seen[rs.req.ID] {
			seen[rs.req.ID] = true
			st.Requests = append(st.Requests, rs.req)
		}
	}
	for cc, q := range m.queues {
		ids := make([]RequestID, len(q))
		for i, rs := range q {
			ids[i] = rs.req.ID
			add(rs)
		}
		st.Queues[cc] = ids
	}
	// Wildcard requests live outside the class queues.
	for _, rs := range m.wild {
		add(rs)
	}
	sort.Slice(st.Requests, func(i, j int) bool {
		a, b := st.Requests[i].ID, st.Requests[j].ID
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	st.Pos = make([]uint64, len(st.Requests))
	st.Done = make([]bool, len(st.Requests))
	for i, req := range st.Requests {
		rs := m.reqs[req.ID]
		st.Pos[i], st.Done[i] = rs.pos, rs.payloadDone
	}
	return st
}

// InstallState replaces the lease table with a transferred snapshot; the
// payloads of transferred requests that are enabled here but were not
// resolved at the sender fire once the view is confirmed (ConfirmView).
// Called on a joining replica before its first view change, after the store
// is installed.
func (m *Manager) InstallState(st *State) {
	if st == nil {
		return
	}
	m.mu.Lock()

	// A state-bearing install can land while local acquisitions are in
	// flight: a member that missed an install still believes itself a
	// primary member, answers the next prepare from its older view, and is
	// readmitted through a full transfer it did not ask for (gcs
	// handleFlush, the one readmission without a join request). The table
	// rebuild below would orphan their reqState objects — waiters blocked on
	// them would never be woken again — so abort them first: the callers
	// observe ErrDeadlock and retry under a fresh request against the
	// installed table. This is the only source of ErrDeadlock.
	for _, rs := range m.reqs {
		if rs.local && !rs.freed {
			rs.aborted = true
		}
	}

	m.queues = make(map[ConflictClass][]*reqState, len(st.Queues))
	m.reqs = make(map[RequestID]*reqState, len(st.Requests))
	m.earlyFreed = make(map[RequestID]bool)
	m.enqueueSeq = st.NextPos
	m.wild, m.inflight, m.draining, m.ripe = nil, nil, nil, nil
	m.ghosts, m.unresolved = nil, nil
	// The transfer belongs to the view being installed.
	m.viewPending = true
	for i, req := range st.Requests {
		rs := &reqState{req: req, local: req.ID.Proc == m.self, enqueued: true}
		if i < len(st.Pos) {
			rs.pos = st.Pos[i]
		}
		if i < len(st.Done) && st.Done[i] {
			rs.fired, rs.payloadDone = true, true
		} else if req.Payload != nil {
			m.unresolved = append(m.unresolved, rs) // ConfirmView fires it once enabled
		}
		m.reqs[req.ID] = rs
		if rs.req.Wildcard {
			m.wild = append(m.wild, rs)
		}
	}
	m.live = len(m.reqs)
	sort.Slice(m.wild, func(i, j int) bool { return m.wild[i].pos < m.wild[j].pos })
	for _, w := range m.wild {
		for _, rs := range m.reqs {
			if rs.pos < w.pos {
				w.ahead++
			}
		}
	}
	for cc, ids := range st.Queues {
		q := make([]*reqState, 0, len(ids))
		for _, id := range ids {
			if rs, ok := m.reqs[id]; ok {
				q = append(q, rs)
			}
		}
		if len(q) > 0 {
			q[0].headCount++
			m.queues[cc] = q
		}
	}
	m.settleAndUnlock()
}

// purgeLocked drops every request, and every buffered early release, whose
// owner is gone (HandleViewChange). A membership change is, with the snapshot
// and the debug view in this file, the only event that walks the whole table.
//
// Early releases are purged like the requests themselves: entries of departed
// or reborn processes are dangerous (a restarted replica reuses its RequestID
// sequence, so a stale entry would silently kill its next request), but a
// SURVIVOR's entry must be kept — its request can still be TO-delivered after
// this view change (an OAB message caught by the flush without a total-order
// entry is re-ordered in the new view), and dropping the buffered release
// would enqueue the request as a permanent zombie at the head of its class
// queues.
func (m *Manager) purgeLocked(gone func(transport.ID) bool) {
	for id := range m.earlyFreed {
		if gone(id.Proc) {
			delete(m.earlyFreed, id)
		}
	}
	for id, st := range m.reqs {
		if gone(id.Proc) {
			m.tracef("view purge %v", id)
			m.dequeueLocked(st)
			delete(m.reqs, id)
		}
	}
	m.inflight = slices.DeleteFunc(m.inflight, func(st *reqState) bool { return st.freed })
}

// QueueDepth returns the number of requests enqueued for the conflict
// classes of the given data items (diagnostics).
func (m *Manager) QueueDepth(dataSet []string) int {
	classes := m.cfg.Mapper.Classes(dataSet)
	m.mu.Lock()
	defer m.mu.Unlock()
	depth := 0
	for _, cc := range classes {
		depth += len(m.queues[cc])
	}
	return depth
}

// HoldsLease reports whether this replica currently has an enabled,
// unreleased local request covering the data set (diagnostics and tests).
func (m *Manager) HoldsLease(dataSet []string) bool {
	classes := m.cfg.Mapper.Classes(dataSet)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.holderLocked(classes) != nil
}

// DebugRequest is one lease request's state as seen by this replica's
// manager, for runtime introspection (/debug/alc and DumpState).
type DebugRequest struct {
	ID       RequestID `json:"id"`
	Local    bool      `json:"local"`
	Enqueued bool      `json:"enqueued"`
	Blocked  bool      `json:"blocked"`
	Freed    bool      `json:"freed"`
	Aborted  bool      `json:"aborted"`
	Active   int       `json:"active"`
	Replace  bool      `json:"replacePending"`
	Enabled  bool      `json:"enabled"`
	Wildcard bool      `json:"wildcard,omitempty"`
	Classes  int       `json:"classes"`
}

// DebugSnapshot is a machine-readable view of the lease table: the request
// states plus summary levels. It is a diagnostics snapshot, not replicated
// state — see SnapshotState for the latter.
type DebugSnapshot struct {
	Self       transport.ID   `json:"self"`
	InPrimary  bool           `json:"inPrimary"`
	EarlyFreed int            `json:"earlyFreed"`
	Classes    int            `json:"classQueues"`
	Waiting    int64          `json:"waiting"`
	Requests   []DebugRequest `json:"requests"`
}

// Debug captures the lease table for diagnostics: sorted by request ID so
// successive snapshots diff cleanly.
func (m *Manager) Debug() DebugSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := DebugSnapshot{
		Self:       m.self,
		InPrimary:  m.inPrimary,
		EarlyFreed: len(m.earlyFreed),
		Classes:    len(m.queues),
		Waiting:    m.nWaiting.Value(),
		Requests:   make([]DebugRequest, 0, len(m.reqs)),
	}
	for id, st := range m.reqs {
		snap.Requests = append(snap.Requests, DebugRequest{
			ID:       id,
			Local:    st.local,
			Enqueued: st.enqueued,
			Blocked:  st.blocked,
			Freed:    st.freed,
			Aborted:  st.aborted,
			Active:   st.active,
			Replace:  st.replacePending,
			Enabled:  st.enqueued && !st.freed && m.enabledLocked(st),
			Wildcard: st.req.Wildcard,
			Classes:  len(st.req.Classes),
		})
	}
	sort.Slice(snap.Requests, func(i, j int) bool {
		a, b := snap.Requests[i].ID, snap.Requests[j].ID
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Seq < b.Seq
	})
	return snap
}

// DumpState renders the lease table for diagnostics.
func (m *Manager) DumpState() string {
	snap := m.Debug()
	out := fmt.Sprintf("LM[%d] inPrimary=%t reqs=%d earlyFreed=%d\n",
		snap.Self, snap.InPrimary, len(snap.Requests), snap.EarlyFreed)
	for _, r := range snap.Requests {
		out += fmt.Sprintf("  %v local=%t enq=%t blocked=%t freed=%t aborted=%t active=%d replace=%t enabled=%t classes=%d\n",
			r.ID, r.Local, r.Enqueued, r.Blocked, r.Freed, r.Aborted, r.Active, r.Replace,
			r.Enabled, r.Classes)
	}
	return out
}
