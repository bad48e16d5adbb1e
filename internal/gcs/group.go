package gcs

import "github.com/alcstm/alc/internal/transport"

// Group is a cross-channel atomic broadcast: one application message per
// endpoint, transmitted to every peer in a single parent-transport frame
// once all parts have reached the front of their endpoints' outboxes.
//
// Why it exists: a plain URBroadcast is asynchronous — the message sits in
// its endpoint's outbox until that endpoint's dispatcher drains it. Portions
// of one cross-shard commit submitted to S endpoints therefore leave the
// origin on S independent goroutines, and a crash between two drains tears
// the commit: one portion achieves uniform delivery, the sibling was never
// sent. The group closes that window with three properties:
//
//  1. All-or-nothing transmission — the initial send is ONE frame per peer
//     (transport.SendGroup), so every part exists at a peer or none does.
//  2. Sender-side injection — each part is staged in its own channel's
//     pending set, as every broadcast is, so the origin's retransmission,
//     non-sender relay, and view-change flush/resubmission machinery cover
//     all parts from the instant of transmission: a part cannot be "sent to
//     peers but unknown to self".
//  3. FIFO preservation — parts occupy ordinary outbox positions, so the
//     per-(writer, shard) sequence numbers stay monotone with respect to
//     earlier and later broadcasts on the same channel (the receivers'
//     frontier filter would silently drop an inversion as a stale duplicate).
//
// Mechanics: each part head-of-line-blocks its outbox (drainOutbox stops at
// it without popping). Whenever a dispatcher finds a group part at its head
// it calls tryComplete, which locks every involved endpoint in creation
// order, verifies all parts are at their heads with their endpoints healthy,
// and then — atomically under all the locks — pops the parts, assigns each
// its sequence number and vector clock, self-injects it, and collects the
// sends. The last endpoint to become ready completes the group. A group on
// an ejected endpoint can never complete; Fail drops the queued sibling
// parts so their outboxes unblock (the caller fails the commit waiter).
type Group struct {
	eps []*Endpoint // lock order: creation order (caller passes ascending shards)

	// failMu guards done and failed. Lock order: any endpoint mu before
	// failMu (tryComplete and the drainOutbox cancellation check both hold
	// an endpoint's mu when they take it; Fail holds none).
	failMu chMutex
	done   bool
	failed bool
}

// chMutex is a tiny channel-based mutex so Group needs no sync import churn.
type chMutex chan struct{}

func newChMutex() chMutex { m := make(chMutex, 1); return m }

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }

// NewGroup creates a group over the given endpoints. The slice order is the
// lock order used by completion; callers must use one consistent order for
// all groups (ascending shard index).
func NewGroup(eps ...*Endpoint) *Group {
	return &Group{eps: eps, failMu: newChMutex()}
}

// Fail cancels a group that can no longer complete (a part's endpoint was
// ejected or a sibling submit failed). Queued parts are dropped the next
// time their dispatchers reach them; nothing has been transmitted, so the
// cancellation is clean all-or-nothing. Idempotent; a no-op after the group
// completed.
func (g *Group) Fail() {
	g.failMu.lock()
	if !g.done {
		g.failed = true
	}
	g.failMu.unlock()
	for _, e := range g.eps {
		e.kick()
	}
}

func (g *Group) canceled() bool {
	g.failMu.lock()
	c := g.failed
	g.failMu.unlock()
	return c
}

func (g *Group) finished() bool {
	g.failMu.lock()
	f := g.done || g.failed
	g.failMu.unlock()
	return f
}

// URBroadcastGroup submits body as this endpoint's part of group g. Like
// URBroadcast it is asynchronous; unlike it, transmission waits for the
// sibling parts. On error the caller must Fail the group: sibling parts
// already queued would otherwise block their outboxes forever.
func (e *Endpoint) URBroadcastGroup(g *Group, body any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return ErrStopped
	}
	if !e.inPrimary {
		return ErrNotPrimary
	}
	e.outbox = append(e.outbox, outMsg{kind: kindURB, body: body, group: g})
	e.kick()
	return nil
}

// tryComplete attempts the all-ready completion. Called without any endpoint
// lock held. Safe to call from any dispatcher, any number of times.
func (g *Group) tryComplete() {
	if g.finished() {
		return
	}
	for _, e := range g.eps {
		e.mu.Lock()
	}
	unlockAll := func() {
		for i := len(g.eps) - 1; i >= 0; i-- {
			g.eps[i].mu.Unlock()
		}
	}
	g.failMu.lock()
	if g.done || g.failed {
		g.failMu.unlock()
		unlockAll()
		return
	}
	for _, e := range g.eps {
		if e.stopped || e.blocked || e.joining || !e.inPrimary ||
			len(e.outbox) == 0 || e.outbox[0].group != g {
			// Not all parts ready (or an endpoint is mid-flush/ejected):
			// retry when that endpoint's dispatcher next kicks.
			g.failMu.unlock()
			unlockAll()
			return
		}
	}

	// All parts at their heads, all endpoints healthy: assign identities and
	// self-inject under the locks, transmit after releasing them.
	type partSend struct {
		tr      transport.Transport
		self    transport.ID
		members []transport.ID
		data    *urbData
	}
	sends := make([]partSend, 0, len(g.eps))
	for _, e := range g.eps {
		m := e.outbox[0]
		e.outbox = e.outbox[1:]
		vs := e.vs
		vs.mySeq++
		d := &urbData{
			View: e.view.ID,
			ID:   msgID{Sender: e.self, Seq: vs.mySeq},
			Kind: m.kind,
			VC:   vs.deliveredVector(),
			Body: m.body,
		}
		e.stageLocked(d)
		e.tryDeliverLocked()
		sends = append(sends, partSend{
			tr:      e.tr,
			self:    e.self,
			members: append([]transport.ID(nil), e.view.Members...),
			data:    d,
		})
	}
	g.done = true
	g.failMu.unlock()
	unlockAll()

	// One frame per peer carrying every part. The peer set is the union of
	// the parts' view memberships (they agree outside view-change windows);
	// a part sent to a peer outside its own view is dropped there by the
	// stale-view check, exactly like any late unicast.
	peers := make(map[transport.ID]bool)
	for _, s := range sends {
		for _, m := range s.members {
			if m != s.self {
				peers[m] = true
			}
		}
	}
	trs := make([]transport.Transport, len(sends))
	payloads := make([]any, len(sends))
	for i, s := range sends {
		trs[i] = s.tr
		payloads[i] = s.data
	}
	for p := range peers {
		_ = transport.SendGroup(p, trs, payloads)
	}
	for _, e := range g.eps {
		e.kick() // run any ready upcalls
	}
}
