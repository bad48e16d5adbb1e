// Package gcs implements the view-synchronous Group Communication Service
// that the ALC protocol stack runs on (§3 of the paper), providing:
//
//   - a primary-component group membership service with viewChange and
//     ejected notifications,
//   - Uniform Reliable Broadcast (URB) with causal order, and
//   - Optimistic Atomic Broadcast (OAB) with Opt-deliver (spontaneous,
//     single-communication-step order estimate) and TO-deliver (uniform
//     total order).
//
// # Protocol
//
// Every broadcast travels as a uniform reliable broadcast: the sender stages
// the payload and sends it to the other view members, and a message is
// UR-delivered once a majority of the view is known to hold it and its causal
// predecessors (tracked by a per-view vector clock) have been delivered — two
// communication steps in the failure-free case. An acknowledgement is a
// cumulative held vector: per sender, the highest seq up to which the
// acknowledging process holds every message. A data frame is its sender's
// acknowledgement of its own messages up to it. In views of four or more
// every receiver acknowledges to every member at once; in smaller views a
// receiver's quorum is itself plus the sender, and the sender needs one
// acknowledgement, so only the sender's designated receiver (the next member
// in view order, or any receiver once that one is quiet) sends it at once.
// Every other acknowledgement serves stability only and rides the next data
// frame to its peer, or leaves at the next tick.
//
// Atomic broadcast is layered on URB with a fixed sequencer (the view
// coordinator): the payload is Opt-delivered at first receipt (one step),
// the sequencer assigns a global sequence number and disseminates it through
// an internal URB message, and the payload is TO-delivered when both the
// payload and its sequence number are UR-delivered and all lower sequence
// numbers have been TO-delivered — three communication steps failure-free.
// This reproduces the latency gap the paper's ALC protocol exploits: 2 steps
// for a lease-holder's commit (one URB) versus 3+ for certification (one AB),
// plus the sequencer's serial bottleneck under load.
//
// Membership changes run a coordinator-driven flush (virtual synchrony):
// members stop broadcasting, report their unstable messages, and the
// coordinator redistributes the union so every surviving member delivers the
// same set of messages in the old view before installing the new one. A view
// is primary only if it contains a majority of the previous primary view;
// processes outside the primary component receive an ejected notification
// and may continue to serve local read-only work, exactly as §3 prescribes.
// A process admitted into a view (a first join, a rejoin after ejection or a
// restart) receives, with the install, the state the coordinator's handler
// chose for it and installs it before its first view (StateTransfer); gcs
// carries that state opaquely and never decides its form.
package gcs

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// Errors returned by broadcast operations.
var (
	// ErrNotPrimary is returned when broadcasting from a process that has
	// been ejected from the primary component.
	ErrNotPrimary = errors.New("gcs: not in primary component")
	// ErrStopped is returned after Close.
	ErrStopped = errors.New("gcs: endpoint stopped")
)

// View is an installed group membership view.
type View struct {
	ID      uint64
	Members []transport.ID
	Primary bool
	// Rejoined lists members admitted into this view through a state
	// transfer (first joins, rejoins after ejection, and processes that
	// missed an installation). Their pre-transfer protocol state is void:
	// the application must treat them as freshly initialized.
	Rejoined []transport.ID
}

// Coordinator returns the view's coordinator (and OAB sequencer): the member
// with the lowest ID.
func (v View) Coordinator() transport.ID {
	if len(v.Members) == 0 {
		return transport.Nobody
	}
	return slices.Min(v.Members)
}

// Quorum returns the majority threshold of the view.
func (v View) Quorum() int { return len(v.Members)/2 + 1 }

// Contains reports whether id is a member of the view.
func (v View) Contains(id transport.ID) bool { return v.index(id) >= 0 }

// index returns id's position in v.Members, or -1.
func (v View) index(id transport.ID) int { return slices.Index(v.Members, id) }

func (v View) String() string {
	return fmt.Sprintf("view(%d, members=%v, primary=%t)", v.ID, v.Members, v.Primary)
}

// Handler receives the GCS upcalls. All methods are invoked sequentially
// from a single dispatcher goroutine per endpoint, mirroring the
// single-threaded protocol execution model the paper assumes; handlers may
// call the endpoint's broadcast methods but must not block indefinitely. A
// Handler with state to hand to joining processes also implements
// StateTransfer, whose methods run on the same goroutine.
type Handler interface {
	// OnOptDeliver is the optimistic delivery of an OA-broadcast message:
	// an early, possibly inaccurate estimate of the final total order.
	OnOptDeliver(from transport.ID, body any)
	// OnTODeliver delivers an OA-broadcast message in the final total order.
	OnTODeliver(from transport.ID, body any)
	// OnURDeliver delivers a UR-broadcast message (causal order).
	OnURDeliver(from transport.ID, body any)
	// OnViewChange announces a newly installed view.
	OnViewChange(v View)
	// OnEjected announces exclusion from the primary component.
	OnEjected()
}

// StateTransfer is implemented by a Handler whose application state a
// joining process must receive before its first view: Bravo et al.'s
// reconfiguration contract, a new view starts from the old one's decided
// state. The endpoint resolves it once, in NewEndpoint; what a joiner is
// sent is the application's decision alone. A process whose handler lacks it
// advertises nothing, admits joiners with a nil state and, when it joins
// itself, gets no install upcall.
type StateTransfer interface {
	// JoinFrontier returns the applied progress this process advertises in
	// its next join request, or nil when its local state is absent or not
	// frontier-consistent. Sampled on the dispatcher at every request, like
	// an upcall but under the endpoint's lock.
	JoinFrontier() map[transport.ID]uint64
	// StatesFor returns the state to ship to each joiner of view, called
	// once per install on its coordinator, after the old view's last
	// deliveries. joiners maps each joiner to the frontier it advertised
	// (nil: none).
	StatesFor(view uint64, joiners map[transport.ID]map[transport.ID]uint64) map[transport.ID]any
	// InstallState installs the state a joining process was sent, before
	// its first view change.
	InstallState(state any)
}

// Config parametrizes an endpoint.
type Config struct {
	// Members is the group universe; the initial view contains all of them.
	Members []transport.ID
	// Joining starts this process outside the group: it requests admission
	// and receives a state transfer before its first view.
	Joining bool
	// HeartbeatInterval is how often idle processes emit liveness beacons.
	HeartbeatInterval time.Duration
	// SuspectAfter is the silence threshold for failure suspicion.
	SuspectAfter time.Duration
	// FlushTimeout bounds how long a view-change coordinator waits for
	// flush responses before re-proposing without the laggards.
	FlushTimeout time.Duration
	// RetransmitAfter is how long a sender waits before re-sending an
	// unstable message to members that have not acknowledged it.
	RetransmitAfter time.Duration
	// Tick is the internal timer granularity.
	Tick time.Duration
	// OrderInterval rate-limits the atomic-broadcast sequencer: successive
	// total-order assignments are spaced at least this far apart (token
	// bucket). Zero disables the limit. It exists to calibrate this GCS's
	// AB capacity to that of a slower stack (the paper's Appia baseline)
	// when reproducing published throughput figures; it has no effect on
	// URB traffic.
	OrderInterval time.Duration
	// AutoRejoin makes an ejected process request readmission automatically.
	AutoRejoin bool
	// Logf, if set, receives debug traces.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 8 * c.HeartbeatInterval
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = 2 * c.SuspectAfter
	}
	if c.RetransmitAfter <= 0 {
		c.RetransmitAfter = 4 * c.HeartbeatInterval
	}
	if c.Tick <= 0 {
		c.Tick = max(c.HeartbeatInterval/4, time.Millisecond)
	}
}

// Endpoint is one process's GCS instance.
type Endpoint struct {
	cfg     Config
	tr      transport.Transport
	handler Handler
	xfer    StateTransfer // handler's, or nil
	self    transport.ID

	mu        sync.Mutex
	view      View
	vs        *viewState
	inPrimary bool
	ejectedAt uint64 // view ID at which we were ejected (0 = never)
	joining   bool
	blocked   bool // flush in progress: app broadcasts are queued

	// outbox holds application broadcasts awaiting transmission: those
	// submitted while a flush, an unshipped install or a join held
	// broadcasts back, and any submitted behind them. Unbounded: bounded in
	// practice by the number of in-flight application transactions.
	outbox []outMsg

	// suspicion state
	lastHeard map[transport.ID]time.Time
	// joinReqs maps each process waiting for admission to the applied
	// frontier it last advertised (nil: none). Reset at every install.
	joinReqs map[transport.ID]map[transport.ID]uint64
	// peerJoinViews records, on an ejected process, the last installed view
	// each peer advertised in a joinReq — the evidence from which a dead
	// primary component is detected and recovered (maybeRecoverLocked).
	peerJoinViews map[transport.ID]uint64
	ejectedSince  time.Time
	// staleSince records when a member was first seen heartbeating a view
	// older than the current one (cleared by a current-view beacon). Only a
	// member stale for longer than SuspectAfter is pulled back in as a joiner:
	// right after an install every member's in-flight beacons are stale, and
	// readmitting a healthy member on one of them wipes its live lease state
	// cluster-wide while it still has transactions committing under it.
	staleSince map[transport.ID]time.Time
	// behindSince is the mirror image, seen from the laggard: when this
	// process, believing itself a primary member, first saw a peer beacon a
	// view NEWER than its own (zero: never since the last install). Behind
	// for longer than SuspectAfter means the install is not merely in flight —
	// this process was dropped from the view and missed the eject notice, or
	// lost the install — and nobody else will tell it: see handleNet.
	behindSince time.Time

	// flush state (proposer side)
	prop           *proposal
	lastProposalID uint64
	pendingSend    *pendingInstall // install not yet shipped: the outbox holds
	// flush state (member side)
	answeredProposal uint64
	blockedSince     time.Time

	// timers
	lastBeat    time.Time
	lastJoinReq time.Time
	wantJoin    bool

	// pending handler upcalls, collected under mu, invoked outside it by the
	// dispatcher, which keeps the last batch's buffer in ran for reuse
	upcalls []upcall
	ran     []upcall

	// urbHook, when set (tests only, before Start), observes under mu every
	// message this process stages or UR-delivers.
	urbHook func(d *urbData, ev urbEvent)

	notify  chan struct{} // outbox signal
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

type outMsg struct {
	kind byte
	body any
}

// upcall is one queued handler invocation: call(handler, from, body), call
// being a Handler method expression or one of the adapters below.
type upcall struct {
	call func(Handler, transport.ID, any)
	from transport.ID
	body any
}

func onViewChange(h Handler, _ transport.ID, v any)  { h.OnViewChange(v.(View)) }
func onEjected(h Handler, _ transport.ID, _ any)     { h.OnEjected() }
func installState(h Handler, _ transport.ID, st any) { h.(StateTransfer).InstallState(st) }

// maxMembers bounds a group's size, and so every member-indexed vector a
// frame may carry.
const maxMembers = 64

// urbEvent is what urbHook observes: a message first held by this process,
// UR-delivered (on a quorum, or Committed), or delivered from a final set.
type urbEvent byte

const (
	urbStaged urbEvent = iota
	urbDelivered
	urbFlushDelivered
)

// NewEndpoint creates and starts a GCS endpoint over the given transport.
func NewEndpoint(tr transport.Transport, h Handler, cfg Config) (*Endpoint, error) {
	cfg.fillDefaults()
	if len(cfg.Members) == 0 || len(cfg.Members) > maxMembers {
		return nil, fmt.Errorf("gcs: %d members, want 1 to %d", len(cfg.Members), maxMembers)
	}
	members := append([]transport.ID(nil), cfg.Members...)
	slices.Sort(members)

	e := &Endpoint{
		cfg:           cfg,
		tr:            tr,
		handler:       h,
		self:          tr.Self(),
		lastHeard:     make(map[transport.ID]time.Time),
		joinReqs:      make(map[transport.ID]map[transport.ID]uint64),
		staleSince:    make(map[transport.ID]time.Time),
		peerJoinViews: make(map[transport.ID]uint64),
		notify:        make(chan struct{}, 1),
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	e.xfer, _ = h.(StateTransfer)

	initial := View{ID: 1, Members: members, Primary: true}
	if cfg.Joining {
		e.joining = true
		e.inPrimary = false
		// Placeholder view; the real one arrives with the state transfer.
		e.view = View{ID: 0, Members: members}
	} else {
		e.view = initial
		e.inPrimary = true
	}
	e.vs = newViewState(e.view, e.self)
	now := time.Now()
	for _, m := range members {
		e.lastHeard[m] = now
	}

	return e, nil
}

// Start launches the endpoint's dispatcher and announces the initial view.
// It must be called exactly once, after the caller has finished wiring its
// handler (upcalls may fire immediately).
func (e *Endpoint) Start() {
	go e.run()
	if !e.cfg.Joining {
		// Announce the initial view to the application.
		e.mu.Lock()
		e.enqueueUpcall(onViewChange, 0, e.view)
		e.mu.Unlock()
		e.kick()
	}
}

// Self returns the local process ID.
func (e *Endpoint) Self() transport.ID { return e.self }

// CurrentView returns the most recently installed view.
func (e *Endpoint) CurrentView() View {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.view
}

// InPrimary reports whether the process is currently in the primary
// component.
func (e *Endpoint) InPrimary() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.inPrimary
}

// QueueStats is a point-in-time view of the endpoint's internal queue
// depths, for the observability layer. All depths are instantaneous levels
// (gauges): they move both ways as the dispatcher drains them.
type QueueStats struct {
	// Outbox is the number of application broadcasts queued behind a flush
	// or an install, awaiting the dispatcher.
	Outbox int `json:"outbox"`
	// URBPending is the size of the URB pending set: messages received but
	// not yet UR-delivered (awaiting quorum acks or causal predecessors).
	URBPending int `json:"urbPending"`
	// URBRetained counts delivered messages retained for flush/stability.
	URBRetained int `json:"urbRetained"`
	// SeqQueue is the sequencer's backlog of unassigned total-order slots
	// (nonzero only on the coordinator).
	SeqQueue int `json:"seqQueue"`
	// Dispatch is the number of inbound transport messages queued ahead of
	// the dispatcher goroutine.
	Dispatch int `json:"dispatch"`
}

// QueueStats samples the endpoint's queue depths.
func (e *Endpoint) QueueStats() QueueStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var pending, retained int
	for s := range e.vs.pending {
		pending += len(e.vs.pending[s])
		retained += len(e.vs.retained[s])
	}
	return QueueStats{
		Outbox:      len(e.outbox),
		URBPending:  pending,
		URBRetained: retained,
		SeqQueue:    len(e.vs.seqQueue),
		Dispatch:    len(e.tr.Inbox()),
	}
}

// OABroadcast submits body for optimistic atomic broadcast. The call is
// asynchronous: delivery happens via the handler. It fails only if the
// process is ejected or stopped.
func (e *Endpoint) OABroadcast(body any) error {
	return e.submit(kindOAB, body)
}

// URBroadcast submits body for uniform reliable broadcast (causal order).
func (e *Endpoint) URBroadcast(body any) error {
	return e.submit(kindURB, body)
}

// submit broadcasts body at once, on the caller's goroutine, when
// drainOutbox would send it right away: nothing holds broadcasts back
// (holdLocked) and nothing is queued ahead of it. Otherwise it queues body
// for the dispatcher. An inline broadcast wakes the dispatcher only if it left
// the dispatcher work: a sequencer slot to order, or upcalls to run.
func (e *Endpoint) submit(kind byte, body any) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return ErrStopped
	}
	if !e.inPrimary {
		return ErrNotPrimary
	}
	if e.holdLocked() || len(e.outbox) > 0 {
		e.outbox = append(e.outbox, outMsg{kind: kind, body: body})
		e.kick()
		return nil
	}
	upcalls := len(e.upcalls)
	e.broadcastDataLocked(kind, body)
	if len(e.upcalls) > upcalls || len(e.vs.seqQueue) > 0 {
		e.kick()
	}
	return nil
}

// Close stops the endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return nil
	}
	e.stopped = true
	e.mu.Unlock()
	close(e.stop)
	<-e.done
	return nil
}

func (e *Endpoint) kick() {
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

func (e *Endpoint) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf("[gcs %d] "+format, append([]any{e.self}, args...)...)
	}
}

// enqueueUpcall schedules a handler invocation; must be called with mu held.
func (e *Endpoint) enqueueUpcall(call func(Handler, transport.ID, any), from transport.ID, body any) {
	e.upcalls = append(e.upcalls, upcall{call, from, body})
}

// run is the dispatcher: the single goroutine that processes network input,
// timers and the outbox, and invokes handler upcalls in order.
func (e *Endpoint) run() {
	defer close(e.done)
	ticker := time.NewTicker(e.cfg.Tick)
	defer ticker.Stop()

	inbox := e.tr.Inbox()
	trDone := e.tr.Done()
	for {
		select {
		case <-e.stop:
			return
		case <-trDone:
			return
		case msg := <-inbox:
			e.handleNet(msg)
			// Drain a bounded batch to amortize ack traffic.
			for i := 0; i < 256; i++ {
				select {
				case m := <-inbox:
					e.handleNet(m)
				default:
					i = 256
				}
			}
		case <-e.notify:
		case <-ticker.C:
			e.tick()
		}
		e.drainOutbox()
		e.mu.Lock()
		e.flushSequencerLocked()
		e.mu.Unlock()
		e.flushAcks()
		e.runUpcalls()
		e.distributePendingInstall()
	}
}

// runUpcalls invokes the queued handler callbacks outside the state lock.
func (e *Endpoint) runUpcalls() {
	for {
		e.mu.Lock()
		calls := e.upcalls
		if len(calls) == 0 {
			e.mu.Unlock()
			return
		}
		e.upcalls = e.ran[:0]
		e.mu.Unlock()
		for i := range calls {
			calls[i].call(e.handler, calls[i].from, calls[i].body)
			calls[i] = upcall{}
		}
		e.ran = calls
	}
}

// drainOutbox transmits queued application broadcasts unless a flush is in
// progress or this process's install has not left yet.
//
// The whole queue goes out in one critical section, in order: each send
// costs O(1) however long the queue is. The emptied slice is kept for the
// next submissions unless a backlog grew it past outboxClamp.
func (e *Endpoint) drainOutbox() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.holdLocked() || len(e.outbox) == 0 || e.stopped {
		return
	}
	msgs := e.outbox
	if e.inPrimary {
		for _, m := range msgs {
			e.broadcastDataLocked(m.kind, m.body)
		}
	}
	clear(msgs)
	if cap(msgs) > outboxClamp {
		msgs = nil
	}
	e.outbox = msgs[:0]
}

// holdLocked reports whether application broadcasts must wait in the
// outbox: a flush is in progress, this process's install has not left yet,
// or it is still joining.
func (e *Endpoint) holdLocked() bool { return e.blocked || e.pendingSend != nil || e.joining }

// outboxClamp is the largest outbox capacity drainOutbox keeps.
const outboxClamp = 1024

// broadcastDataLocked assigns identity and vector clock to a message, stages
// it (the sender holds it from here on) and sends it to the other members.
// When any of them is owed an acknowledgement the frame carries this
// process's held vector, which settles what is owed to all of them.
func (e *Endpoint) broadcastDataLocked(kind byte, body any) {
	vs := e.vs
	if vs.self < 0 {
		e.logf("broadcast outside the installed view %v dropped", e.view)
		return
	}
	owes := false
	for _, o := range vs.owed {
		owes = owes || o.n > 0
	}
	vs.mySeq++
	d := &urbData{View: e.view.ID, ID: msgID{Sender: e.self, Seq: vs.mySeq}, Kind: kind, Body: body}
	d.VC, d.Acks = vs.vectors(owes)
	e.stageLocked(vs.self, d)
	if owes {
		clear(vs.owed)
	}
	for k, m := range e.view.Members {
		if k != vs.self {
			_ = e.tr.Send(m, d)
		}
	}
	e.tryDeliverLocked()
}

// flushAcks sends this process's held vector to every peer it is due to.
func (e *Endpoint) flushAcks() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	vs := e.vs
	var a *urbAck
	for k := range vs.owed {
		if o := &vs.owed[k]; o.due {
			if a == nil {
				a = &urbAck{View: e.view.ID, From: e.self, Held: append([]uint64(nil), vs.held...)}
			}
			_ = e.tr.Send(vs.view.Members[k], a)
			*o = owedAck{}
		}
	}
}
