package gcs

import (
	"cmp"
	"slices"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// proposal is the coordinator-side state of an in-progress view change.
type proposal struct {
	id        uint64
	members   []transport.ID
	joiners   map[transport.ID]bool // members needing a state transfer
	responses map[transport.ID]*vcFlush
	startedAt time.Time
}

// pendingInstall carries a computed view installation from the dispatch
// round that decided it to the point (after local upcalls have run) where
// the application can cut the joiners' states.
type pendingInstall struct {
	install *vcInstall
	// joiners maps each joiner to the frontier it advertised (nil: none),
	// captured before the install reset joinReqs.
	joiners map[transport.ID]map[transport.ID]uint64
	targets []transport.ID
	ejected []transport.ID
}

// handleNet dispatches one incoming transport message.
func (e *Endpoint) handleNet(msg transport.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.lastHeard[msg.From] = time.Now()

	switch m := msg.Payload.(type) {
	case *urbData:
		if e.joining {
			return
		}
		e.handleData(m, msg.From)
	case *urbAck:
		if !e.joining && m.View == e.view.ID {
			e.noteHeldLocked(e.view.index(m.From), m.Held)
			e.tryDeliverLocked()
		}
	case *heartbeat:
		// Liveness already recorded. Beacons never readmit anyone: a process
		// comes back only on its own join request, which carries its
		// frontier, or on a flush report from an older view (handleFlush).
		// Right after an install every member's in-flight beacons still
		// carry the old view, so readmitting on them would wipe a healthy
		// member's live lease requests cluster-wide. A beacon at the current
		// view voids the sender's join request: it is a member of this view
		// already, and a request delayed past its admission must not
		// readmit it a second time.
		if m.View == e.view.ID {
			delete(e.joinReqs, m.From)
		} else if m.View > e.view.ID && e.inPrimary && !e.joining {
			// A peer is in a later view than the one this process still
			// believes it is a primary member of. If that lasts for
			// SuspectAfter (an install in flight explains a few beacons),
			// this process is behind the primary component for good: it was
			// dropped from the view and its eject notice was lost (it was
			// partitioned away, or not yet running), or it lost the install.
			// It hears everybody's beacons, so it never suspects a quorum and
			// never ejects itself, and would stay wedged in the dead view
			// forever. Rejoin instead.
			switch {
			case e.behindSince.IsZero():
				e.behindSince = time.Now()
			case time.Since(e.behindSince) > e.cfg.SuspectAfter:
				e.handleStale(&vcStale{ViewID: m.View})
			}
		}
	case *joinReq:
		if e.inPrimary {
			e.joinReqs[m.From] = m.Frontier
		} else if !e.joining {
			// Ejected with state: remember what view the peer claims, so a
			// dead primary component can be detected and recovered.
			e.peerJoinViews[m.From] = m.ViewID
		}
	case *vcPrepare:
		e.handlePrepare(m)
	case *vcFlush:
		e.handleFlush(m)
	case *vcInstall:
		e.handleInstall(m)
	case *vcStale:
		e.handleStale(m)
	case *ejectNotice:
		e.ejectLocked()
	default:
		e.logf("unknown payload %T from %d", msg.Payload, msg.From)
	}
}

// vcStale tells a proposer that its view is behind the respondent's.
type vcStale struct {
	ViewID uint64
}

// ejectLocked marks the process as excluded from the primary component.
func (e *Endpoint) ejectLocked() {
	if !e.inPrimary && e.ejectedAt != 0 {
		return
	}
	e.inPrimary = false
	e.ejectedSince = time.Now()
	e.blocked = false
	e.ejectedAt = e.view.ID
	e.outbox = nil
	e.enqueueUpcall(onEjected, 0, nil)
	e.logf("ejected from primary component at view %d", e.view.ID)
}

// --- Failure detection and proposing (tick) ---------------------------------

// tick runs periodic duties: heartbeats, retransmission, suspicion, and view
// change proposing.
func (e *Endpoint) tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	now := time.Now()

	e.maybeHeartbeatLocked(now)
	for k := range e.vs.owed {
		e.vs.owed[k].due = e.vs.owed[k].n > 0
	}
	if !e.joining {
		e.retransmitLocked(now)
	}

	if !e.inPrimary {
		// Joining or ejected: ask to be readmitted, with this process's
		// frontier, until an install arrives.
		e.maybeJoinReqLocked(now)
		if !e.joining {
			// Ejected with state intact: watch for a dead primary component
			// and recover it (no-op while any live primary can readmit us).
			e.maybeRecoverLocked(now)
			e.maybeFinishProposalLocked(now)
		}
		return
	}

	suspected := e.suspectedLocked(now)

	// Self-ejection: if fewer than a quorum of the current view appears
	// alive, this process cannot be in the primary component.
	alive := 0
	for _, m := range e.view.Members {
		if m == e.self || !suspected[m] {
			alive++
		}
	}
	if alive < e.view.Quorum() {
		e.ejectLocked()
		return
	}

	// Unstick: if a flush stalled (proposer crashed before install), resume
	// normal operation; the heartbeat view-lag mechanism repairs divergence.
	if e.blocked && !e.blockedSince.IsZero() && now.Sub(e.blockedSince) > 3*e.cfg.FlushTimeout {
		e.logf("flush stalled, unblocking")
		e.blocked = false
		e.blockedSince = time.Time{}
	}

	e.maybeProposeLocked(now, suspected)
	e.maybeFinishProposalLocked(now)
}

func (e *Endpoint) maybeHeartbeatLocked(now time.Time) {
	if now.Sub(e.lastBeat) < e.cfg.HeartbeatInterval {
		return
	}
	e.lastBeat = now
	hb := &heartbeat{View: e.view.ID, From: e.self}
	for _, m := range e.cfg.Members {
		if m != e.self {
			_ = e.tr.Send(m, hb)
		}
	}
}

func (e *Endpoint) maybeJoinReqLocked(now time.Time) {
	if now.Sub(e.lastJoinReq) < e.cfg.SuspectAfter {
		return
	}
	e.sendJoinReq()
}

func (e *Endpoint) sendJoinReq() {
	e.lastJoinReq = time.Now()
	viewID := uint64(0)
	if !e.joining {
		viewID = e.view.ID // state intact: advertise it for recovery
	}
	req := &joinReq{From: e.self, ViewID: viewID}
	if e.xfer != nil {
		// Sampled per request: the frontier moves while we wait (an ejected
		// process keeps applying URB deliveries), and the install-time filter
		// on the joiner — not this advertisement — is the correctness
		// guarantee against overlap.
		req.Frontier = e.xfer.JoinFrontier()
	}
	for _, m := range e.cfg.Members {
		if m != e.self {
			_ = e.tr.Send(m, req)
		}
	}
}

// suspectedLocked returns the set of current-view members considered failed.
func (e *Endpoint) suspectedLocked(now time.Time) map[transport.ID]bool {
	out := make(map[transport.ID]bool)
	for _, m := range e.view.Members {
		if m == e.self {
			continue
		}
		if now.Sub(e.lastHeard[m]) > e.cfg.SuspectAfter {
			out[m] = true
		}
	}
	return out
}

// maybeProposeLocked starts a view change if this process is the acting
// coordinator (lowest unsuspected member) and membership needs to change.
func (e *Endpoint) maybeProposeLocked(now time.Time, suspected map[transport.ID]bool) {
	// Acting coordinator: lowest member neither suspected nor known to be
	// rejoining (a restarted process heartbeats under its old identity but
	// cannot coordinate: it has no state and is waiting for admission).
	acting := transport.Nobody
	for _, m := range e.view.Members {
		if _, joining := e.joinReqs[m]; !suspected[m] && !joining && (acting == transport.Nobody || m < acting) {
			acting = m
		}
	}
	if acting != e.self {
		return
	}

	// Joiners: every process that asked to (re)join needs a state transfer,
	// even if it is formally still a member of the current view (a process
	// that crashed and restarted keeps heartbeating under its old identity
	// but has lost all state).
	joiners := make(map[transport.ID]bool)
	for j := range e.joinReqs {
		if j != e.self && !suspected[j] {
			joiners[j] = true
		}
	}
	needsChange := len(joiners) > 0
	for _, m := range e.view.Members {
		if suspected[m] {
			needsChange = true
		}
	}
	if !needsChange || e.prop != nil {
		return
	}

	members := make([]transport.ID, 0, len(e.view.Members)+len(joiners))
	for _, m := range e.view.Members {
		if !suspected[m] && !joiners[m] {
			members = append(members, m)
		}
	}
	// Primary component chain: the survivors must be a majority of the
	// current view, otherwise this side must not install a new view.
	if len(members) < e.view.Quorum() {
		e.ejectLocked()
		return
	}
	for j := range joiners {
		members = append(members, j)
	}
	slices.Sort(members)
	e.proposeLocked(0, members, joiners, now)
}

// proposeLocked starts a view change to members with proposal id (0: the
// next unused one, past any proposal this process answered) and sends its
// prepare to each of them.
func (e *Endpoint) proposeLocked(id uint64, members []transport.ID, joiners map[transport.ID]bool, now time.Time) {
	if id == 0 {
		id = max(e.view.ID, e.answeredProposal, e.lastProposalID) + 1
	}
	e.lastProposalID = id
	e.prop = &proposal{
		id:        id,
		members:   members,
		joiners:   joiners,
		responses: make(map[transport.ID]*vcFlush),
		startedAt: now,
	}
	e.logf("proposing view %d members %v (joiners %v)", id, members, joiners)
	prep := &vcPrepare{ProposalID: id, Proposer: e.self, Members: members}
	for _, m := range members {
		_ = e.tr.Send(m, prep)
	}
}

// maybeRecoverLocked restarts a dead primary component. A view change can
// leave EVERY process outside the primary component — e.g. the coordinator
// partitions away while the only other stateful survivor cannot form a
// quorum alone — and join requests are only answered by primary members, so
// without recovery the group is wedged forever even though a majority of the
// last view's members still hold their full state.
//
// Ejected processes advertise their last installed view in their join
// requests. An ejected process with state at view V may conclude that no
// primary component at view V or later exists anywhere once EVERY other
// member of V is accounted for: advertising exactly V (ejected with state,
// like us) or advertising an older view or 0 (stateless restart, or left
// behind by an earlier install). Members in a live primary never send join
// requests, so full accounting proves no member of V is in one — and any
// view later than V would have needed a majority of V's members as stateful
// participants. The accounting cannot go stale, because an ejected process
// stays ejected until a view later than V is installed: classification is
// objective (each peer's class depends only on its own state), so every
// would-be recoverer that achieves full accounting computes the same
// stateful set, and the lowest-ID member of it is the unique process that
// re-proposes — through the ordinary prepare/flush/install machinery. The
// proposal-ID bump past any answered proposal keeps view IDs unique, and
// handleFlush demotes respondents that turn out to be behind V (or to have
// lost their state since advertising it) to state-transfer joiners.
func (e *Endpoint) maybeRecoverLocked(now time.Time) {
	if e.joining || e.inPrimary || e.prop != nil || e.ejectedAt == 0 {
		return
	}
	// Give any surviving primary component a full suspicion interval to
	// readmit us through the normal join path before assuming it is dead.
	if now.Sub(e.ejectedSince) < e.cfg.SuspectAfter {
		return
	}
	stateful := []transport.ID{e.self}
	joiners := make(map[transport.ID]bool)
	for m, v := range e.peerJoinViews {
		switch {
		case m == e.self:
		case v > e.view.ID:
			// A peer ahead of us proves we missed an install: we are the
			// stale ones and must rejoin, not coordinate.
			return
		case v == e.view.ID && e.view.Contains(m):
			stateful = append(stateful, m)
		default:
			joiners[m] = true
		}
	}
	// Full accounting: every other member of our view must have explained
	// itself. An unaccounted member may be running a live primary (primary
	// members are silent) — only the normal join path may proceed then.
	for _, m := range e.view.Members {
		if m == e.self {
			continue
		}
		if _, ok := e.peerJoinViews[m]; !ok {
			return
		}
	}
	for _, m := range stateful {
		if m < e.self {
			return // a lower-ID stateful peer coordinates
		}
	}

	members := append([]transport.ID(nil), stateful...)
	for j := range joiners {
		members = append(members, j)
	}
	slices.Sort(members)
	e.logf("recovering a dead primary component")
	e.proposeLocked(0, members, joiners, now)
}

// maybeFinishProposalLocked handles flush timeouts: laggards are dropped and
// the proposal restarts without them.
func (e *Endpoint) maybeFinishProposalLocked(now time.Time) {
	p := e.prop
	if p == nil || now.Sub(p.startedAt) < e.cfg.FlushTimeout {
		return
	}
	missing := make([]transport.ID, 0)
	for _, m := range p.members {
		if _, ok := p.responses[m]; !ok {
			missing = append(missing, m)
		}
	}
	if len(missing) == 0 {
		return
	}
	e.logf("flush timeout, dropping %v", missing)
	members := make([]transport.ID, 0, len(p.members))
	oldSurvivors := 0
	for _, m := range p.members {
		if slices.Contains(missing, m) {
			continue
		}
		members = append(members, m)
		// A joiner is not a survivor even while it is formally still a member
		// of the current view: a process that crashed and restarted (or was
		// ejected) rejoins under its old identity with no claim on the old
		// view's state. Counting it would let ONE stateful member plus a
		// stateless joiner pass for a majority and install a view that
		// silently discards what the dropped members had delivered.
		if e.view.Contains(m) && !p.joiners[m] {
			oldSurvivors++
		}
	}
	if oldSurvivors < e.view.Quorum() {
		e.prop = nil
		e.ejectLocked()
		return
	}
	joiners := make(map[transport.ID]bool)
	for j := range p.joiners {
		if slices.Contains(members, j) {
			joiners[j] = true
		}
	}
	e.proposeLocked(p.id+1, members, joiners, now)
}

// --- Member side of the flush ------------------------------------------------

func (e *Endpoint) handlePrepare(p *vcPrepare) {
	if !slices.Contains(p.Members, e.self) {
		return
	}
	if p.ProposalID <= e.view.ID {
		// The proposer is behind us: tell it so it can rejoin.
		_ = e.tr.Send(p.Proposer, &vcStale{ViewID: e.view.ID})
		return
	}
	if p.ProposalID <= e.answeredProposal {
		return // already answered an equal or newer proposal
	}
	e.answeredProposal = p.ProposalID
	if !e.blocked {
		e.blocked = true
		e.blockedSince = time.Now()
	}

	resp := &vcFlush{
		ProposalID: p.ProposalID,
		From:       e.self,
		ViewID:     e.view.ID,
	}
	if !e.joining {
		resp.Unstable = e.unstableMessagesLocked()
		resp.Orders = e.pendingOrdersLocked()
		resp.SeqNext = e.vs.seqNext
	}
	_ = e.tr.Send(p.Proposer, resp)
}

func (e *Endpoint) handleStale(s *vcStale) {
	if s.ViewID <= e.view.ID {
		return
	}
	// We are behind the primary component: abandon any proposal and rejoin.
	e.logf("behind primary (view %d < %d), rejoining", e.view.ID, s.ViewID)
	e.prop = nil
	e.ejectLocked()
	e.sendJoinReq()
}

// --- Proposer side: collecting flushes and computing the install -------------

func (e *Endpoint) handleFlush(f *vcFlush) {
	p := e.prop
	if p == nil || f.ProposalID != p.id {
		return
	}
	if f.ViewID > e.view.ID {
		// We are the stale ones; stop proposing and rejoin.
		e.handleStale(&vcStale{ViewID: f.ViewID})
		return
	}
	if f.ViewID < e.view.ID {
		// The respondent is behind (missed a previous install): it needs a
		// full state transfer, not a flush merge. Nothing it holds belongs
		// to this view, so its report adds no message, order slot or slot
		// count to the install.
		p.joiners[f.From] = true
		f.Unstable, f.Orders, f.SeqNext = nil, nil, 0
	}
	p.responses[f.From] = f
	if len(p.responses) == len(p.members) {
		e.computeInstallLocked()
	}
}

// computeInstallLocked merges the flush responses into a vcInstall, applies
// it locally, and schedules distribution (after local upcalls have run, so
// the joiners' states reflect the final old-view deliveries).
func (e *Endpoint) computeInstallLocked() {
	p := e.prop
	e.prop = nil

	// Refresh the proposer's own contribution: messages it staged after
	// answering its own prepare (should the flush have stalled and unblocked
	// meanwhile) would otherwise miss the union.
	if own, ok := p.responses[e.self]; ok && !e.joining {
		own.Unstable = e.unstableMessagesLocked()
		own.Orders = e.pendingOrdersLocked()
		own.SeqNext = e.vs.seqNext
	}

	// Union of unstable messages.
	union := make(map[msgID]*urbData)
	ordered := make(map[msgID]uint64)
	var maxAssigned uint64 // one past the highest assigned gseq
	for _, f := range p.responses {
		for _, d := range f.Unstable {
			if d.View != e.view.ID {
				continue
			}
			if _, ok := union[d.ID]; !ok {
				union[d.ID] = d
			}
			// Any frame may carry assignments that have not been
			// UR-delivered anywhere yet.
			for _, ent := range d.Orders {
				ordered[ent.ID] = ent.GSeq
				if ent.GSeq+1 > maxAssigned {
					maxAssigned = ent.GSeq + 1
				}
			}
		}
		for _, ent := range f.Orders {
			ordered[ent.ID] = ent.GSeq
			if ent.GSeq+1 > maxAssigned {
				maxAssigned = ent.GSeq + 1
			}
		}
		if f.SeqNext > maxAssigned {
			maxAssigned = f.SeqNext
		}
	}

	// Deterministic delivery list.
	deliveries := make([]*urbData, 0, len(union))
	for _, d := range union {
		deliveries = append(deliveries, d)
	}
	slices.SortFunc(deliveries, func(a, b *urbData) int {
		return cmp.Or(cmp.Compare(a.ID.Sender, b.ID.Sender), cmp.Compare(a.ID.Seq, b.ID.Seq))
	})

	// Assign total-order slots to OAB payloads that were never ordered, in
	// deterministic (sender, seq) order after all existing assignments.
	orderList := make([]orderEntry, 0, len(ordered))
	for id, g := range ordered {
		orderList = append(orderList, orderEntry{ID: id, GSeq: g})
	}
	for _, d := range deliveries {
		if d.Kind != kindOAB {
			continue
		}
		if _, ok := ordered[d.ID]; ok {
			continue
		}
		orderList = append(orderList, orderEntry{ID: d.ID, GSeq: maxAssigned})
		ordered[d.ID] = maxAssigned
		maxAssigned++
	}
	slices.SortFunc(orderList, func(a, b orderEntry) int { return cmp.Compare(a.GSeq, b.GSeq) })

	rejoined := make([]transport.ID, 0, len(p.joiners))
	for j := range p.joiners {
		rejoined = append(rejoined, j)
	}
	slices.Sort(rejoined)
	newView := View{ID: p.id, Members: p.members, Primary: true, Rejoined: rejoined}
	install := &vcInstall{
		ProposalID: p.id,
		View:       newView,
		Deliveries: deliveries,
		Orders:     orderList,
	}

	e.logf("installing %v: %d deliveries, %d orders", newView, len(deliveries), len(orderList))

	// Apply locally first so the joiners' states (cut after upcalls run)
	// include every old-view delivery.
	ejected := make([]transport.ID, 0)
	for _, m := range e.view.Members {
		if !slices.Contains(p.members, m) {
			ejected = append(ejected, m)
		}
	}
	targets := make([]transport.ID, 0, len(p.members))
	for _, m := range p.members {
		if m != e.self {
			targets = append(targets, m)
		}
	}
	// Capture the joiners' advertised frontiers before applyInstallLocked
	// resets the join bookkeeping.
	joiners := make(map[transport.ID]map[transport.ID]uint64, len(p.joiners))
	for j := range p.joiners {
		joiners[j] = e.joinReqs[j]
	}
	e.applyInstallLocked(install, false)
	// While pendingSend is set the outbox holds (drainOutbox), so
	// nothing enters the new view before the install has left: links are
	// FIFO, so members install before they see the frames rather than drop
	// them as from a future view. The hold is not blocked: a later prepare in
	// this round sets blocked, and that flush report must stay final.
	e.pendingSend = &pendingInstall{
		install: install,
		joiners: joiners,
		targets: targets,
		ejected: ejected,
	}
}

// distributePendingInstall runs on the dispatcher after upcalls: it asks the
// application for the joiners' states, ships the install and only then
// clears pendingSend, which holds the outbox.
func (e *Endpoint) distributePendingInstall() {
	e.mu.Lock()
	ps := e.pendingSend
	e.mu.Unlock()
	if ps == nil {
		return
	}

	var states map[transport.ID]any
	if e.xfer != nil && len(ps.joiners) > 0 {
		states = e.xfer.StatesFor(ps.install.View.ID, ps.joiners)
	}
	for _, m := range ps.targets {
		msg := *ps.install // shallow copy; slices shared read-only
		if _, ok := ps.joiners[m]; ok {
			msg.HasState, msg.State = true, states[m]
		}
		_ = e.tr.Send(m, &msg)
	}
	for _, m := range ps.ejected {
		_ = e.tr.Send(m, &ejectNotice{ViewID: ps.install.View.ID})
	}
	e.mu.Lock()
	e.pendingSend = nil
	e.mu.Unlock()
	e.kick() // release the outbox into the new view
}

// --- Installation -------------------------------------------------------------

func (e *Endpoint) handleInstall(in *vcInstall) {
	if in.View.ID <= e.view.ID {
		return
	}
	if !slices.Contains(in.View.Members, e.self) {
		e.ejectLocked()
		return
	}
	if in.HasState && e.inPrimary && !e.joining {
		// The group readmitted this process as a joiner while it considers
		// itself a healthy member: it missed an install, answered the next
		// prepare from its old view, and handleFlush made it a joiner.
		// Everything pre-install is void — the other members purged this
		// process's lease requests when they installed the view, so
		// releasing a broadcast queued during the flush into the new view
		// would commit a write-set under a dead lease. Go through a full
		// ejection first: the outbox is dropped and in-flight commits fail
		// and retry against the transferred state.
		e.ejectLocked()
	}
	pre := len(e.upcalls)
	e.applyInstallLocked(in, in.HasState)
	if in.HasState && e.xfer != nil {
		// InstallState must run after the ejection upcall (if any) and before
		// the view-change upcall applyInstallLocked just enqueued.
		e.upcalls = slices.Insert(e.upcalls, pre, upcall{call: installState, body: in.State})
	}
}

// applyInstallLocked delivers the flush set and switches to the new view.
func (e *Endpoint) applyInstallLocked(in *vcInstall, freshState bool) {
	var lost []*urbData
	if !freshState && !e.joining {
		lost = e.deliverFlushSetLocked(in)
	}

	old := e.view.ID
	e.view = in.View
	e.vs = newViewState(in.View, e.self)
	e.inPrimary = true
	e.ejectedAt = 0
	e.joining = false
	e.blocked = false
	e.blockedSince = time.Time{}
	e.prop = nil
	e.joinReqs = make(map[transport.ID]map[transport.ID]uint64)
	e.behindSince = time.Time{}
	e.peerJoinViews = make(map[transport.ID]uint64)
	now := time.Now()
	for _, m := range in.View.Members {
		e.lastHeard[m] = now
	}

	// Resubmit own lost in-flight messages ahead of anything queued during
	// the flush, preserving the sender's FIFO order.
	if len(lost) > 0 {
		resub := make([]outMsg, 0, len(lost)+len(e.outbox))
		for _, d := range lost {
			resub = append(resub, outMsg{kind: d.Kind, body: d.Body})
		}
		e.outbox = append(resub, e.outbox...)
	}

	e.enqueueUpcall(onViewChange, 0, e.view)
	e.logf("installed view %d (from %d)", e.view.ID, old)
	e.kick() // release any queued outbox traffic into the new view
}

// deliverFlushSetLocked delivers, in causal order, every message from the
// final old-view set that this process has not delivered yet, then applies
// the final total order. This is the virtual-synchrony step: after it, every
// member that installs the view has delivered the same set of messages.
//
// It returns the process's own in-flight messages that did NOT make it into
// the final set: a message staged after its sender's flush report (a stalled
// flush that unblocked) exists nowhere in the union and would otherwise be
// lost (violating validity for its — surviving — sender). Such messages are
// resubmitted in the new view;
// they are exactly-once because a message absent from the union cannot have
// been UR- or TO-delivered anywhere (either delivery requires a majority to
// hold it, and a majority of the old view responded to the flush).
func (e *Endpoint) deliverFlushSetLocked(in *vcInstall) []*urbData {
	vs := e.vs
	inSet := make(map[msgID]bool, len(in.Deliveries))

	// Stage unseen messages of the final set as pending.
	for _, d := range in.Deliveries {
		s := vs.view.index(d.ID.Sender)
		if d.View != e.view.ID || s < 0 || len(d.VC) != len(vs.delivered) {
			continue
		}
		inSet[d.ID] = true
		if d.ID.Seq <= vs.delivered[s] || lookup(vs.pending[s], d.ID.Seq) != nil {
			continue // already delivered or received
		}
		vs.pending[s], _ = insert(vs.pending[s], pendingMsg{data: d, sentAt: time.Now()})
		if d.Kind == kindOAB {
			e.enqueueUpcall(Handler.OnOptDeliver, d.ID.Sender, d.Body)
		}
	}

	// Forced causal delivery of the final set: quorum checks no longer
	// apply, the coordinator has decided this set is final. Messages
	// outside the set must NOT be delivered locally — no one else will
	// deliver them.
	for progress := true; progress; {
		progress = false
		for s := range vs.pending {
			for q := vs.pending[s]; len(q) > 0 && inSet[q[0].data.ID] && vs.causallyReady(s, q[0].data); q = vs.pending[s] {
				e.urDeliverLocked(s, true)
				progress = true
			}
		}
	}

	// Final total order: TO-deliver everything not yet TO-delivered.
	for _, ent := range in.Orders {
		_, pm := vs.find(ent.ID)
		if pm == nil || pm.toDelivered {
			continue
		}
		pm.toDelivered = true
		e.enqueueUpcall(Handler.OnTODeliver, ent.ID.Sender, pm.data.Body)
	}

	// Collect own lost in-flight application messages for resubmission.
	var lost []*urbData
	if vs.self >= 0 {
		for _, pm := range vs.pending[vs.self] {
			if d := pm.data; d.Kind != kindOrder && !inSet[d.ID] {
				lost = append(lost, d)
			}
		}
	}
	if len(lost) > 0 {
		e.logf("install: resubmitting %d in-flight messages into the new view", len(lost))
	}
	return lost
}
