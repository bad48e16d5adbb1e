package gcs

import (
	"cmp"
	"slices"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// viewState is the per-view protocol state. It is replaced wholesale at each
// view installation, which keeps message identities (view, sender, seq)
// unambiguous and lets old-view traffic be dropped by a single comparison.
// Every per-process slice is indexed like view.Members.
type viewState struct {
	view View
	self int // this process's index in view.Members, -1 outside it

	mySeq     uint64         // my next broadcast sequence number
	delivered []uint64       // UR-delivered count per sender
	pending   [][]pendingMsg // per sender, by seq: received, not yet UR-delivered
	retained  [][]pendingMsg // per sender, by seq: delivered, not yet stable
	// ackedBy[k*n+s] is the highest seq such that member k is known to hold
	// every message from sender s up to it (n members). This process's own
	// row is held; a message is held by k members when k rows reach its seq,
	// and stable when all do.
	ackedBy []uint64
	held    []uint64
	owed    []owedAck // acknowledgements owed to each peer

	// Total order machinery.
	orders   map[uint64]msgID // gseq -> message
	urDone   map[msgID]bool   // OAB payloads UR-delivered, awaiting order
	nextGSeq uint64           // next gseq to TO-deliver

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

// owedAck is this process's acknowledgement backlog towards one peer: n
// messages staged or re-received since the peer last got its held vector. Due,
// the vector leaves this round; else it rides the next data frame, the tick
// or maxOwedAcks.
type owedAck struct {
	n   int
	due bool
}

const maxOwedAcks = 256

func newViewState(v View, self transport.ID) *viewState {
	n := len(v.Members)
	vs := &viewState{
		view:      v,
		self:      v.index(self),
		delivered: make([]uint64, n),
		pending:   make([][]pendingMsg, n),
		retained:  make([][]pendingMsg, n),
		ackedBy:   make([]uint64, n*n),
		owed:      make([]owedAck, n),
		orders:    make(map[uint64]msgID),
		urDone:    make(map[msgID]bool),
	}
	if vs.self >= 0 {
		vs.held = vs.ackedBy[vs.self*n : vs.self*n+n]
	} else {
		vs.held = make([]uint64, n)
	}
	return vs
}

// vectors returns a copy of the delivered-count vector (the causal clock of
// an outgoing message) and, if withHeld, of the held vector, in one
// allocation.
func (vs *viewState) vectors(withHeld bool) (vc, held []uint64) {
	if !withHeld {
		return slices.Clone(vs.delivered), nil
	}
	n := len(vs.delivered)
	buf := append(append(make([]uint64, 0, 2*n), vs.delivered...), vs.held...)
	return buf[:n:n], buf[n:]
}

// holders counts the members known to hold message seq from sender s.
func (vs *viewState) holders(s int, seq uint64) int {
	n, c := len(vs.delivered), 0
	for k := 0; k < n; k++ {
		if vs.ackedBy[k*n+s] >= seq {
			c++
		}
	}
	return c
}

// stable returns the highest seq up to which the whole view holds sender s's
// messages.
func (vs *viewState) stable(s int) uint64 {
	n := len(vs.delivered)
	m := vs.ackedBy[s]
	for k := 1; k < n; k++ {
		m = min(m, vs.ackedBy[k*n+s])
	}
	return m
}

// credit records that member k holds every message from sender s up to seq.
func (vs *viewState) credit(k, s int, seq uint64) {
	if p := &vs.ackedBy[k*len(vs.delivered)+s]; seq > *p {
		*p = seq
		vs.prune(s)
	}
}

// prune drops sender s's retained messages once the whole view holds them. An
// OAB payload stays until TO-delivered: the TO upcall reads its body here.
func (vs *viewState) prune(s int) {
	q, st := vs.retained[s], vs.stable(s)
	i, w := 0, 0
	for ; i < len(q) && q[i].data.ID.Seq <= st; i++ {
		if q[i].data.Kind == kindOAB && !q[i].toDelivered {
			q[w] = q[i]
			w++
		}
	}
	vs.retained[s] = slices.Delete(q, w, i)
}

// find locates a received message (pending or retained) and its sender's
// index. Like lookup's, the pointer is valid until the queue changes.
func (vs *viewState) find(id msgID) (int, *pendingMsg) {
	s := vs.view.index(id.Sender)
	if s < 0 {
		return s, nil
	}
	if pm := lookup(vs.retained[s], id.Seq); pm != nil {
		return s, pm
	}
	return s, lookup(vs.pending[s], id.Seq)
}

func bySeq(pm pendingMsg, seq uint64) int { return cmp.Compare(pm.data.ID.Seq, seq) }

func lookup(q []pendingMsg, seq uint64) *pendingMsg {
	if i, ok := slices.BinarySearchFunc(q, seq, bySeq); ok {
		return &q[i]
	}
	return nil
}

// insert puts pm into the seq-ordered q and returns q and pm's position.
func insert(q []pendingMsg, pm pendingMsg) ([]pendingMsg, int) {
	i, _ := slices.BinarySearchFunc(q, pm.data.ID.Seq, bySeq)
	return slices.Insert(q, i, pm), i
}

// causallyReady reports whether d, from sender s, is next in s's FIFO order
// and its causal predecessors have been delivered.
func (vs *viewState) causallyReady(s int, d *urbData) bool {
	if d.ID.Seq != vs.delivered[s]+1 {
		return false
	}
	for p, c := range d.VC {
		if p != s && vs.delivered[p] < c {
			return false
		}
	}
	return true
}

// handleData processes an incoming urbData (any kind) that arrived from
// member from (its sender, or a member relaying it). Called with mu held.
func (e *Endpoint) handleData(d *urbData, from transport.ID) {
	vs := e.vs
	s := vs.view.index(d.ID.Sender)
	if d.View != e.view.ID || s < 0 || s == vs.self || len(d.VC) != len(vs.delivered) {
		// Old view (stale); future view (a member that installed it first:
		// its retransmission follows); malformed; or this process's own
		// message relayed back, staged at broadcast.
		return
	}
	if d.Acks != nil {
		e.noteHeldLocked(s, d.Acks) // the sender's held vector when it sent d
	}
	if pm := lookup(vs.pending[s], d.ID.Seq); pm != nil {
		pm.committed = pm.committed || d.Committed
	} else if d.ID.Seq > vs.delivered[s] {
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
		e.stageLocked(s, d)
	}
	// A data frame is its sender's acknowledgement of everything it sent up
	// to this message: the sender staged each before sending it. A relaying
	// member is counted through its own held vector only. Duplicates and
	// retransmissions are re-acknowledged so that the sender (or relayer) can
	// reach stability.
	vs.credit(s, s, d.ID.Seq)
	e.ackLocked(s, vs.view.index(from))
	e.tryDeliverLocked()
}

// stageLocked puts a message this process holds for the first time in
// pending, advances its held vector, Opt-delivers an OAB payload (spontaneous
// delivery: one communication step after the OA-broadcast) and hands a peer's
// to the sequencer. sendDataLocked hands this process's own payload over
// before staging it, so that its frame carries its slot.
func (e *Endpoint) stageLocked(s int, d *urbData) {
	vs := e.vs
	q, i := insert(vs.pending[s], pendingMsg{data: d, sentAt: time.Now(), committed: d.Committed})
	vs.pending[s] = q
	for ; i < len(q) && q[i].data.ID.Seq == vs.held[s]+1; i++ {
		vs.held[s]++
	}
	if e.urbHook != nil {
		e.urbHook(d, urbStaged)
	}
	if d.Kind == kindOAB {
		e.enqueueUpcall(Handler.OnOptDeliver, d.ID.Sender, d.Body)
		if s != vs.self {
			e.sequencerAssignLocked(d.ID)
		}
	}
}

// ackLocked owes this process's held vector to every peer after it staged or
// re-received a message from sender s through member via (-1: outside the
// view). It is due this round to the relayer, and to everyone when the quorum
// exceeds two, because a receiver then needs a third holder. In smaller views
// a receiver's quorum is itself plus the sender: the sender needs one ack, so
// only its designated receiver sends it at once (designatedLocked). Every
// other ack serves stability only and waits for a data frame to the peer, the
// next tick or maxOwedAcks.
func (e *Endpoint) ackLocked(s, via int) {
	vs := e.vs
	all := vs.view.Quorum() > 2
	for k := range vs.owed {
		if k == vs.self {
			continue
		}
		o := &vs.owed[k]
		o.n++
		o.due = o.due || all || o.n >= maxOwedAcks ||
			(k == via && via != s) || (k == s && e.designatedLocked(s))
	}
}

// designatedLocked reports whether this process acknowledges sender s's
// messages to s at once in a view of at most three: it is s's designated
// receiver, the member after s in view order, or it has not heard from that
// member for longer than HeartbeatInterval + Tick. Beacons are at least
// HeartbeatInterval apart, and a healthy member sends its next one at the
// first tick past that, so only a crashed or stalled member (or delivery
// jitter, which costs no more than a redundant ack) stays quiet longer.
func (e *Endpoint) designatedLocked(s int) bool {
	members := e.vs.view.Members
	d := (s + 1) % len(members)
	return d == e.vs.self || time.Since(e.lastHeard[members[d]]) > e.cfg.HeartbeatInterval+e.cfg.Tick
}

// noteHeldLocked records member k's held vector; a vector from outside the
// view (k < 0), from this process or of the wrong length changes nothing.
func (e *Endpoint) noteHeldLocked(k int, held []uint64) {
	vs := e.vs
	if k < 0 || k == vs.self || len(held) != len(vs.delivered) {
		return
	}
	for s, h := range held {
		vs.credit(k, s, h)
	}
}

// tryDeliverLocked repeatedly UR-delivers each sender's next message while it
// is causally ready and held by a quorum.
func (e *Endpoint) tryDeliverLocked() {
	vs := e.vs
	quorum := vs.view.Quorum()
	for progress := true; progress; {
		progress = false
		for s := range vs.pending {
			for q := vs.pending[s]; len(q) > 0; q = vs.pending[s] {
				pm := &q[0]
				if !vs.causallyReady(s, pm.data) || (!pm.committed && vs.holders(s, pm.data.ID.Seq) < quorum) {
					break
				}
				e.urDeliverLocked(s, false)
				progress = true
			}
		}
	}
}

// urDeliverLocked finalizes the UR-delivery of the head of sender s's pending
// queue. The order slots a frame carries take effect first, then its body: a
// lease release the sequencer broadcast in the round that ordered the request
// it answers reaches the application after that request's TO-delivery, as if
// the slot had left in a frame of its own before it. A view change's final
// set (final) is delivered through here too, in causal order, and its order
// slots take effect as they are delivered: a
// message sent after its sender TO-delivered a payload must not reach the
// application before that payload's TO-delivery here, in the flush as
// anywhere else (a §4.5(c) write-set committed under a piggybacked lease
// request must find the request's payload applied). The install's order then
// TO-delivers whatever the final set left unordered.
func (e *Endpoint) urDeliverLocked(s int, final bool) {
	vs := e.vs
	pm := vs.pending[s][0]
	d := pm.data
	if e.urbHook != nil {
		ev := urbDelivered
		if final {
			ev = urbFlushDelivered
		}
		e.urbHook(d, ev)
	}
	vs.pending[s] = slices.Delete(vs.pending[s], 0, 1)
	vs.delivered[s] = d.ID.Seq
	vs.retained[s] = append(vs.retained[s], pm)
	vs.prune(s)

	if len(d.Orders) > 0 {
		for _, ent := range d.Orders {
			vs.orders[ent.GSeq] = ent.ID
		}
		e.tryTODeliverLocked()
	}
	switch d.Kind {
	case kindURB:
		e.enqueueUpcall(Handler.OnURDeliver, d.ID.Sender, d.Body)
	case kindOAB:
		vs.urDone[d.ID] = true
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
		delete(vs.orders, vs.nextGSeq)
		delete(vs.urDone, id)
		vs.nextGSeq++
		s, pm := vs.find(id)
		if pm == nil {
			// Cannot happen: OAB payloads are retained until TO-delivered.
			e.logf("TO-deliver %v: body missing", id)
			continue
		}
		pm.toDelivered = true
		e.enqueueUpcall(Handler.OnTODeliver, id.Sender, pm.data.Body)
		// The body may have been withheld from stability pruning solely for
		// this delivery; release it now if it is stable.
		vs.prune(s)
	}
}

// sequencerAssignLocked assigns the next global sequence number to an OAB
// payload if this process is the current sequencer. The slot waits in
// seqQueue for the next data frame this process sends (takeOrdersLocked),
// or for the end of the dispatch round (flushOrders), so a burst costs at
// most one frame of its own.
func (e *Endpoint) sequencerAssignLocked(id msgID) {
	vs := e.vs
	if e.view.Coordinator() != e.self || e.joining {
		return
	}
	// Called exactly once per message: by stageLocked on its first insertion
	// into pending (duplicates are filtered before reaching it), or by
	// sendDataLocked for this process's own.
	vs.seqQueue = append(vs.seqQueue, orderEntry{ID: id, GSeq: vs.seqNext})
	vs.seqNext++
}

// orderBudgetLocked returns how many queued slots the next frame may carry:
// all of them, or as many as the OrderInterval token bucket holds.
func (e *Endpoint) orderBudgetLocked() int {
	vs := e.vs
	n := len(vs.seqQueue)
	iv := e.cfg.OrderInterval
	if n == 0 || iv <= 0 {
		return n
	}
	now := time.Now()
	if vs.seqRefill.IsZero() {
		vs.seqRefill = now
	}
	const burst = 4.0
	vs.seqTokens = min(vs.seqTokens+float64(now.Sub(vs.seqRefill))/float64(iv), burst)
	vs.seqRefill = now
	return min(n, int(vs.seqTokens))
}

// takeOrdersLocked removes from seqQueue the slots the frame being built
// carries (orderBudgetLocked), nil if none. The frame keeps the returned
// slice; seqQueue goes on past it in the same array and never writes into it.
func (e *Endpoint) takeOrdersLocked() []orderEntry {
	vs := e.vs
	n := e.orderBudgetLocked()
	if n == 0 {
		return nil
	}
	if e.cfg.OrderInterval > 0 {
		vs.seqTokens -= float64(n)
	}
	orders := vs.seqQueue[:n:n]
	vs.seqQueue = vs.seqQueue[n:]
	return orders
}

// flushOrders sends the slots no data frame of this dispatch round carried,
// in an order-only frame. It runs after the round's upcalls, so that a
// broadcast the handler makes from an Opt-delivery (a lease release) carries
// the slot of the request that caused it. Nothing leaves while broadcasts are
// held (holdLocked): the install reassigns a flushed view's unsent slots.
func (e *Endpoint) flushOrders() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.stopped && !e.holdLocked() && e.orderBudgetLocked() > 0 {
		e.sendDataLocked(kindOrder, nil)
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
	n := len(vs.delivered)
	resend := func(s int, pm *pendingMsg, delivered bool) {
		patience := e.cfg.RetransmitAfter
		if s != vs.self {
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
		data := pm.data
		if delivered {
			// The sender has UR-delivered this message: the retransmission
			// may waive the receiver's quorum check (send a copy — the
			// original payload is shared and must stay immutable).
			copy := *pm.data
			copy.Committed = true
			data = &copy
		}
		for k, m := range vs.view.Members {
			if k != vs.self && vs.ackedBy[k*n+s] < data.ID.Seq {
				_ = e.tr.Send(m, data)
			}
		}
	}
	for s := range vs.pending {
		for i := range vs.pending[s] {
			resend(s, &vs.pending[s][i], false)
		}
		for i := range vs.retained[s] {
			resend(s, &vs.retained[s][i], true)
		}
	}
}

// unstableMessagesLocked collects everything not known stable, for the flush
// protocol, in (sender, seq) order.
func (e *Endpoint) unstableMessagesLocked() []*urbData {
	vs := e.vs
	out := make([]*urbData, 0, 8)
	for s := range vs.pending {
		for _, pm := range vs.retained[s] {
			out = append(out, pm.data)
		}
		for _, pm := range vs.pending[s] {
			out = append(out, pm.data)
		}
	}
	return out
}

// pendingOrdersLocked collects the not-yet-TO-delivered order assignments.
func (e *Endpoint) pendingOrdersLocked() []orderEntry {
	vs := e.vs
	out := make([]orderEntry, 0, len(vs.orders))
	for g, id := range vs.orders {
		out = append(out, orderEntry{ID: id, GSeq: g})
	}
	slices.SortFunc(out, func(a, b orderEntry) int { return cmp.Compare(a.GSeq, b.GSeq) })
	return out
}
