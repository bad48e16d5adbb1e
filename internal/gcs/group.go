package gcs

import (
	"slices"
	"sync"

	"github.com/alcstm/alc/internal/transport"
)

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
//  1. All-or-nothing transmission — every send, retransmissions included, is
//     ONE frame per peer (SendGroup), so every part reaches a peer or none.
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
// order, verifies all parts are at their heads with their endpoints healthy
// and no earlier broadcast of theirs possibly lost (unheardOwn), and then —
// atomically under all the locks — pops the parts, assigns each its sequence
// number and vector clock, self-injects it, and collects the sends. The last endpoint to become ready completes the group. A group on
// an ejected endpoint can never complete; Fail drops the queued sibling
// parts so their outboxes unblock (the caller fails the commit waiter).
type Group struct {
	eps []*Endpoint // lock order: creation order (caller passes ascending shards)

	// failMu guards done and failed. Lock order: any endpoint mu before
	// failMu (tryComplete and the drainOutbox cancellation check both hold
	// an endpoint's mu when they take it; Fail holds none).
	failMu sync.Mutex
	done   bool
	failed bool
}

// groupFrame is a completed group's transmission: each part on its endpoint's
// transport.
type groupFrame struct {
	trs      []transport.Transport
	payloads []any
}

// NewGroup creates a group over the given endpoints. The slice order is the
// lock order used by completion; callers must use one consistent order for
// all groups (ascending shard index).
func NewGroup(eps ...*Endpoint) *Group {
	return &Group{eps: eps}
}

// Fail cancels a group that can no longer complete (a part's endpoint was
// ejected or a sibling submit failed). Queued parts are dropped the next
// time their dispatchers reach them; nothing has been transmitted, so the
// cancellation is clean all-or-nothing. Idempotent; a no-op after the group
// completed.
func (g *Group) Fail() {
	g.failMu.Lock()
	if !g.done {
		g.failed = true
	}
	g.failMu.Unlock()
	for _, e := range g.eps {
		e.kick()
	}
}

func (g *Group) canceled() bool {
	g.failMu.Lock()
	c := g.failed
	g.failMu.Unlock()
	return c
}

func (g *Group) finished() bool {
	g.failMu.Lock()
	f := g.done || g.failed
	g.failMu.Unlock()
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
	g.failMu.Lock()
	if g.done || g.failed {
		g.failMu.Unlock()
		unlockAll()
		return
	}
	for _, e := range g.eps {
		if e.stopped || e.blocked || e.pendingSend != nil || e.joining || !e.inPrimary || e.vs.self < 0 ||
			len(e.outbox) == 0 || e.outbox[0].group != g || e.vs.unheardOwn(e.cfg.Tick) {
			// Not all parts ready (or an endpoint is mid-flush/ejected, or an
			// earlier broadcast of its may be lost: a part staged behind it
			// could never be delivered while a sibling part is): retry when
			// that endpoint's dispatcher next kicks.
			g.failMu.Unlock()
			unlockAll()
			return
		}
	}

	// All parts at their heads, all endpoints healthy: assign identities and
	// self-inject under the locks, transmit after releasing them. Every part
	// keeps the frame: its retransmission resends all parts, which a heal or
	// a crash between per-part retransmissions would split.
	f := &groupFrame{trs: make([]transport.Transport, len(g.eps)), payloads: make([]any, len(g.eps))}
	// One frame per peer carrying every part. The peer set is the union of
	// the parts' view memberships (they agree outside view-change windows);
	// a part sent to a peer outside its own view is dropped there by the
	// stale-view check, exactly like any late unicast.
	peers := make(map[transport.ID]bool)
	for i, e := range g.eps {
		m := e.outbox[0]
		e.outbox = slices.Delete(e.outbox, 0, 1)
		d := e.stageOwnLocked(m.kind, m.body, false)
		lookup(e.vs.pending[e.vs.self], d.ID.Seq).group = f
		f.trs[i], f.payloads[i] = e.tr, d
		for _, p := range e.view.Members {
			if p != e.self {
				peers[p] = true
			}
		}
		e.tryDeliverLocked()
	}
	g.done = true
	g.failMu.Unlock()
	unlockAll()

	for p := range peers {
		_ = transport.SendGroup(p, f.trs, f.payloads)
	}
	for _, e := range g.eps {
		e.kick() // run any ready upcalls
	}
}
