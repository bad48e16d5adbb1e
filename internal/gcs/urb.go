package gcs

import (
	"sort"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// viewState is the per-view protocol state. It is replaced wholesale at each
// view installation, which keeps message identities (view, sender, seq)
// unambiguous and lets old-view traffic be dropped by a single comparison.
type viewState struct {
	view View

	mySeq     uint64                  // my next broadcast sequence number
	delivered map[transport.ID]uint64 // UR-delivered count per sender
	pending   map[msgID]*pendingMsg   // received, not yet UR-delivered
	retained  map[msgID]*pendingMsg   // delivered, not yet stable
	acks      map[msgID]map[transport.ID]bool
	ackBorn   map[msgID]time.Time // for orphan-ack GC

	// Total order machinery.
	orders    map[uint64]msgID // gseq -> message
	orderedAs map[msgID]uint64 // message -> gseq
	urDone    map[msgID]bool   // OAB payloads UR-delivered, awaiting order
	nextGSeq  uint64           // next gseq to TO-deliver

	// Sequencer (coordinator) state.
	seqNext   uint64
	seqQueue  []orderEntry
	seqRefill time.Time // token-bucket refill mark (OrderInterval pacing)
	seqTokens float64
}

type pendingMsg struct {
	data        *urbData
	sentAt      time.Time // local receipt/send time, drives retransmission
	resentAt    time.Time
	toDelivered bool // OAB payloads: body must be retained until TO-delivered
	committed   bool // a Committed retransmission waives the quorum check
}

func newViewState(v View) *viewState {
	return &viewState{
		view:      v,
		delivered: make(map[transport.ID]uint64),
		pending:   make(map[msgID]*pendingMsg),
		retained:  make(map[msgID]*pendingMsg),
		acks:      make(map[msgID]map[transport.ID]bool),
		ackBorn:   make(map[msgID]time.Time),
		orders:    make(map[uint64]msgID),
		orderedAs: make(map[msgID]uint64),
		urDone:    make(map[msgID]bool),
	}
}

// deliveredVector copies the delivered-count vector (the causal clock
// attached to outgoing messages).
func (vs *viewState) deliveredVector() map[transport.ID]uint64 {
	vc := make(map[transport.ID]uint64, len(vs.delivered))
	for k, v := range vs.delivered {
		vc[k] = v
	}
	return vc
}

// ackSet returns the set of members known to hold id (the local process
// counts itself when it stages the message).
func (vs *viewState) ackSet(id msgID) map[transport.ID]bool {
	s, ok := vs.acks[id]
	if !ok {
		s = make(map[transport.ID]bool, len(vs.view.Members))
		vs.acks[id] = s
		vs.ackBorn[id] = time.Now()
	}
	return s
}

// causallyReady reports whether d's causal predecessors have been delivered.
func (vs *viewState) causallyReady(d *urbData) bool {
	if d.ID.Seq != vs.delivered[d.ID.Sender]+1 {
		return false
	}
	for p, c := range d.VC {
		if p == d.ID.Sender {
			continue
		}
		if vs.delivered[p] < c {
			return false
		}
	}
	return true
}

// handleData processes an incoming urbData (any kind) that arrived from
// member from (its sender, or a member relaying it). Called with mu held.
func (e *Endpoint) handleData(d *urbData, from transport.ID) {
	vs := e.vs
	if d.View != e.view.ID {
		return // old or future view: old is stale, future cannot happen before install
	}
	if d.Acks != nil {
		// The sender's acknowledgements, piggybacked on a live send; this
		// copy of the frame was made for this process alone.
		for _, id := range d.Acks {
			e.noteAckLocked(id, d.ID.Sender)
		}
		d.Acks = nil
	}
	if pm, ok := vs.pending[d.ID]; ok {
		pm.committed = pm.committed || d.Committed
	} else if d.ID.Seq > vs.delivered[d.ID.Sender] {
		if e.blocked {
			// Flush in progress: this process has already reported its
			// unstable set for the coming view (handlePrepare). Staging — above
			// all, acknowledging — a message it first sees now would let the
			// sender collect a full set of acks, UR-deliver the message and
			// prune it as stable while no flush report names it; the install
			// would then discard it here as "outside the final set" although
			// the sender has acknowledged it to the application. Left
			// unacknowledged it stays unstable at its sender, whose own report
			// carries it (or whose retransmission does, should the flush
			// stall and unblock).
			e.tryDeliverLocked()
			return
		}
		e.stageLocked(d)
	}
	// A data frame is its sender's acknowledgement: the sender staged the
	// message before sending it. A relaying member holds it too; a relay from
	// outside the view must not count, or a full-looking set could lack a
	// member. Duplicates and retransmissions are re-acknowledged so that the
	// sender (or relayer) can reach stability.
	e.noteAckLocked(d.ID, d.ID.Sender)
	if from != d.ID.Sender && e.view.Contains(from) {
		e.noteAckLocked(d.ID, from)
	}
	e.ackLocked(d.ID, from)
	e.tryDeliverLocked()
}

// stageLocked puts a message this process holds for the first time in
// pending with its own acknowledgement, Opt-delivers an OAB payload
// (spontaneous delivery: one communication step after the OA-broadcast) and
// hands it to the sequencer.
func (e *Endpoint) stageLocked(d *urbData) {
	e.vs.pending[d.ID] = &pendingMsg{data: d, sentAt: time.Now(), committed: d.Committed}
	e.vs.ackSet(d.ID)[e.self] = true
	if e.urbHook != nil {
		e.urbHook(d, urbStaged)
	}
	if d.Kind == kindOAB {
		from, body := d.ID.Sender, d.Body
		e.enqueueUpcall(func() { e.handler.OnOptDeliver(from, body) })
		e.sequencerAssignLocked(d.ID)
	}
}

// ackLocked owes this process's acknowledgement of id to every other member.
// It is due this round to the message's sender and to the member it came
// through, and to everyone when the quorum exceeds two. Otherwise the other
// receiver already counts itself and the sender as a quorum: the ack serves
// its stability only and waits for a data frame to it, the next tick or
// maxOwedAcks. The sender never acknowledges its own message.
func (e *Endpoint) ackLocked(id msgID, via transport.ID) {
	if id.Sender == e.self {
		return
	}
	now := e.view.Quorum() > 2
	for i, m := range e.view.Members {
		if m == e.self {
			continue
		}
		a := &e.acks[i]
		a.ids = append(a.ids, id)
		a.due = a.due || now || m == id.Sender || m == via || len(a.ids) >= maxOwedAcks
	}
}

// handleAck processes an acknowledgment batch. Called with mu held.
func (e *Endpoint) handleAck(a *urbAck) {
	if a.View != e.view.ID {
		return
	}
	for _, id := range a.IDs {
		e.noteAckLocked(id, a.From)
	}
	e.tryDeliverLocked()
}

// noteAckLocked records that member from holds id, pruning the message once
// the whole view does.
func (e *Endpoint) noteAckLocked(id msgID, from transport.ID) {
	vs := e.vs
	if _, unstable := vs.retained[id]; !unstable && id.Seq <= vs.delivered[id.Sender] {
		// Delivered and already pruned as stable here: a late or repeated
		// acknowledgement must not create a set again, nothing would ever
		// complete it (gcAcksLocked would hold it for 30 s).
		return
	}
	set := vs.ackSet(id)
	if set[from] {
		return
	}
	set[from] = true
	if len(set) == len(vs.view.Members) {
		// Stable: everyone has it; no need to retain for flush. OAB payloads
		// must additionally stay retained until TO-delivered, because the TO
		// upcall reads the body from the retained set.
		if pm, ok := vs.retained[id]; ok && (pm.data.Kind != kindOAB || pm.toDelivered) {
			delete(vs.retained, id)
			delete(vs.acks, id)
			delete(vs.ackBorn, id)
		}
	}
}

// tryDeliverLocked repeatedly UR-delivers every pending message that is
// causally ready and majority-acknowledged.
func (e *Endpoint) tryDeliverLocked() {
	vs := e.vs
	quorum := vs.view.Quorum()
	for progress := true; progress; {
		progress = false
		for id, pm := range vs.pending {
			if !vs.causallyReady(pm.data) {
				continue
			}
			if !pm.committed && len(vs.ackSet(id)) < quorum {
				continue
			}
			e.urDeliverLocked(pm)
			progress = true
		}
	}
}

// urDeliverLocked finalizes the UR-delivery of one message.
func (e *Endpoint) urDeliverLocked(pm *pendingMsg) {
	vs := e.vs
	d := pm.data
	if e.urbHook != nil {
		e.urbHook(d, urbDelivered)
	}
	delete(vs.pending, d.ID)
	vs.delivered[d.ID.Sender] = d.ID.Seq
	if len(vs.ackSet(d.ID)) == len(vs.view.Members) && (d.Kind != kindOAB || pm.toDelivered) {
		delete(vs.acks, d.ID)
		delete(vs.ackBorn, d.ID)
	} else {
		vs.retained[d.ID] = pm
	}

	switch d.Kind {
	case kindURB:
		from, body := d.ID.Sender, d.Body
		e.enqueueUpcall(func() { e.handler.OnURDeliver(from, body) })
	case kindOAB:
		vs.urDone[d.ID] = true
		e.tryTODeliverLocked()
	case kindOrder:
		batch, ok := d.Body.(*orderBatch)
		if !ok {
			e.logf("malformed order batch from %v", d.ID.Sender)
			return
		}
		for _, ent := range batch.Entries {
			vs.orders[ent.GSeq] = ent.ID
			vs.orderedAs[ent.ID] = ent.GSeq
		}
		e.tryTODeliverLocked()
	}
}

// tryTODeliverLocked advances the total-order frontier: TO-deliver each
// consecutive gseq whose payload has been UR-delivered.
func (e *Endpoint) tryTODeliverLocked() {
	vs := e.vs
	for {
		id, ok := vs.orders[vs.nextGSeq]
		if !ok || !vs.urDone[id] {
			return
		}
		e.toDeliverLocked(id)
		vs.nextGSeq++
	}
}

// toDeliverLocked emits the TO-delivery upcall for one OAB payload and
// prunes its order bookkeeping.
func (e *Endpoint) toDeliverLocked(id msgID) {
	vs := e.vs
	pm := e.findMsgLocked(id)
	if pm == nil {
		// Cannot happen: OAB payloads are retained until TO-delivered.
		e.logf("TO-deliver %v: body missing", id)
		return
	}
	pm.toDelivered = true
	delete(vs.urDone, id)
	if g, ok := vs.orderedAs[id]; ok {
		delete(vs.orders, g)
		delete(vs.orderedAs, id)
	}
	// The body may have been withheld from stability pruning solely for
	// this delivery; release it now if it is stable.
	if _, ok := vs.retained[id]; ok && len(vs.ackSet(id)) == len(vs.view.Members) {
		delete(vs.retained, id)
		delete(vs.acks, id)
		delete(vs.ackBorn, id)
	}
	from, body := pm.data.ID.Sender, pm.data.Body
	e.enqueueUpcall(func() { e.handler.OnTODeliver(from, body) })
}

// findMsgLocked locates a message that has been received (pending or
// retained).
func (e *Endpoint) findMsgLocked(id msgID) *pendingMsg {
	if pm, ok := e.vs.retained[id]; ok {
		return pm
	}
	if pm, ok := e.vs.pending[id]; ok {
		return pm
	}
	return nil
}

// sequencerAssignLocked assigns the next global sequence number to an OAB
// payload if this process is the current sequencer. The assignments are
// batched and broadcast at the end of the dispatch round, so bursts cost one
// internal message.
func (e *Endpoint) sequencerAssignLocked(id msgID) {
	vs := e.vs
	if e.view.Coordinator() != e.self || e.joining {
		return
	}
	// stageLocked calls this exactly once per message (first insertion into
	// pending); duplicates are filtered before reaching it.
	vs.seqQueue = append(vs.seqQueue, orderEntry{ID: id, GSeq: vs.seqNext})
	vs.seqNext++
}

// flushSequencerLocked broadcasts accumulated order assignments, paced by
// the OrderInterval token bucket when configured.
func (e *Endpoint) flushSequencerLocked() {
	vs := e.vs
	if len(vs.seqQueue) == 0 || e.blocked {
		return
	}
	n := len(vs.seqQueue)
	if iv := e.cfg.OrderInterval; iv > 0 {
		now := time.Now()
		if vs.seqRefill.IsZero() {
			vs.seqRefill = now
		}
		vs.seqTokens += float64(now.Sub(vs.seqRefill)) / float64(iv)
		vs.seqRefill = now
		if burst := 4.0; vs.seqTokens > burst {
			vs.seqTokens = burst
		}
		if int(vs.seqTokens) < n {
			n = int(vs.seqTokens)
		}
		if n == 0 {
			return // paced out; the next tick or delivery retries
		}
		vs.seqTokens -= float64(n)
	}
	batch := &orderBatch{Entries: vs.seqQueue[:n:n]}
	vs.seqQueue = append([]orderEntry(nil), vs.seqQueue[n:]...)
	e.broadcastDataLocked(kindOrder, batch)
}

// retained/pending garbage: drop ack entries that never saw data (lost or
// stale) after a grace period.
func (e *Endpoint) gcAcksLocked(now time.Time) {
	vs := e.vs
	for id, born := range vs.ackBorn {
		if now.Sub(born) < 30*time.Second {
			continue
		}
		if _, ok := vs.pending[id]; ok {
			continue
		}
		if _, ok := vs.retained[id]; ok {
			continue
		}
		delete(vs.acks, id)
		delete(vs.ackBorn, id)
	}
}

// retransmitLocked re-sends unstable messages to members that have not
// acknowledged them. The original sender retransmits after RetransmitAfter;
// any OTHER process holding a message stuck in pending waits twice as long
// and then re-broadcasts it too. The second rule is the recovery path for
// lost acknowledgments: once the sender observes full stability it prunes
// and stops retransmitting, so a receiver whose quorum of acks was dropped
// in transit would otherwise wait forever — its re-broadcast provokes fresh
// acks (every process re-acks duplicates) that unstick the delivery.
func (e *Endpoint) retransmitLocked(now time.Time) {
	vs := e.vs
	resend := func(pm *pendingMsg, delivered bool) {
		patience := e.cfg.RetransmitAfter
		if pm.data.ID.Sender != e.self {
			if delivered {
				return // stability is the sender's business
			}
			patience *= 2
		}
		ref := pm.resentAt
		if ref.IsZero() {
			ref = pm.sentAt
		}
		if now.Sub(ref) < patience {
			return
		}
		pm.resentAt = now
		set := vs.ackSet(pm.data.ID)
		data := pm.data
		if delivered {
			// The sender has UR-delivered this message: the retransmission
			// may waive the receiver's quorum check (send a copy — the
			// original payload is shared and must stay immutable).
			copy := *pm.data
			copy.Committed = true
			data = &copy
		}
		for _, m := range vs.view.Members {
			if !set[m] {
				_ = e.tr.Send(m, data)
			}
		}
	}
	for _, pm := range vs.pending {
		resend(pm, false)
	}
	for _, pm := range vs.retained {
		resend(pm, true)
	}
}

// unstableMessagesLocked collects everything not known stable, for the flush
// protocol. Sorted for determinism.
func (e *Endpoint) unstableMessagesLocked() []*urbData {
	vs := e.vs
	out := make([]*urbData, 0, len(vs.pending)+len(vs.retained))
	for _, pm := range vs.pending {
		out = append(out, pm.data)
	}
	for _, pm := range vs.retained {
		out = append(out, pm.data)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Sender != out[j].ID.Sender {
			return out[i].ID.Sender < out[j].ID.Sender
		}
		return out[i].ID.Seq < out[j].ID.Seq
	})
	return out
}

// pendingOrdersLocked collects the not-yet-TO-delivered order assignments.
func (e *Endpoint) pendingOrdersLocked() []orderEntry {
	vs := e.vs
	out := make([]orderEntry, 0, len(vs.orders))
	for g, id := range vs.orders {
		out = append(out, orderEntry{ID: id, GSeq: g})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GSeq < out[j].GSeq })
	return out
}
