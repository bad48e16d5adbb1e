package gcs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/transport"
)

func TestViewCoordinator(t *testing.T) {
	tests := []struct {
		members []transport.ID
		want    transport.ID
	}{
		{nil, transport.Nobody},
		{[]transport.ID{3}, 3},
		{[]transport.ID{5, 2, 9}, 2},
		{[]transport.ID{0, 1, 2}, 0},
	}
	for _, tt := range tests {
		v := View{Members: tt.members}
		if got := v.Coordinator(); got != tt.want {
			t.Errorf("Coordinator(%v) = %d, want %d", tt.members, got, tt.want)
		}
	}
}

func TestViewQuorum(t *testing.T) {
	tests := []struct {
		n    int
		want int
	}{
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {8, 5},
	}
	for _, tt := range tests {
		members := make([]transport.ID, tt.n)
		for i := range members {
			members[i] = transport.ID(i)
		}
		if got := (View{Members: members}).Quorum(); got != tt.want {
			t.Errorf("Quorum(n=%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestViewContains(t *testing.T) {
	v := View{Members: []transport.ID{1, 3}}
	if !v.Contains(1) || !v.Contains(3) || v.Contains(2) {
		t.Fatalf("Contains misbehaves on %v", v)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	c := Config{}
	c.fillDefaults()
	if c.HeartbeatInterval <= 0 || c.SuspectAfter <= c.HeartbeatInterval ||
		c.FlushTimeout <= 0 || c.RetransmitAfter <= 0 || c.Tick <= 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}

	c = Config{HeartbeatInterval: time.Second}
	c.fillDefaults()
	if c.SuspectAfter != 8*time.Second {
		t.Fatalf("SuspectAfter = %v, want 8x heartbeat", c.SuspectAfter)
	}
}

func TestCausallyReady(t *testing.T) {
	vs := newViewState(View{ID: 1, Members: []transport.ID{0, 1, 2}})
	vs.delivered[0] = 2
	vs.delivered[1] = 1

	tests := []struct {
		name string
		d    *urbData
		want bool
	}{
		{"next in FIFO, deps met",
			&urbData{ID: msgID{Sender: 0, Seq: 3}, VC: map[transport.ID]uint64{1: 1}}, true},
		{"FIFO gap",
			&urbData{ID: msgID{Sender: 0, Seq: 5}, VC: nil}, false},
		{"causal dep missing",
			&urbData{ID: msgID{Sender: 0, Seq: 3}, VC: map[transport.ID]uint64{2: 1}}, false},
		{"own VC entry ignored",
			&urbData{ID: msgID{Sender: 1, Seq: 2}, VC: map[transport.ID]uint64{1: 99}}, true},
	}
	for _, tt := range tests {
		if got := vs.causallyReady(tt.d); got != tt.want {
			t.Errorf("%s: causallyReady = %t, want %t", tt.name, got, tt.want)
		}
	}
}

func TestContainsIDHelper(t *testing.T) {
	ids := []transport.ID{1, 2, 3}
	if !containsID(ids, 2) || containsID(ids, 9) {
		t.Fatal("containsID misbehaves")
	}
}

// TestFlushingMemberDoesNotAckNewPeerData pins the virtual-synchrony rule a
// lost acknowledged commit was traced to: once a member has answered a
// vcPrepare, its flush report is final, so it must not acknowledge a peer's
// message it first sees afterwards. If it did, the sender could collect a full
// set of acks, deliver the message and prune it as stable — leaving it in no
// flush report, to be discarded at this member by the install. The message
// must still reach the member through the install's final set. The member's
// own broadcast, staged when it was made, is in its own report.
func TestFlushingMemberDoesNotAckNewPeerData(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	tr, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	sent := &sentLog{Transport: tr}
	rec := &recorder{}
	e, err := NewEndpoint(sent, rec, Config{Members: []transport.ID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the test plays the dispatcher and feeds messages directly.
	deliver := func(from transport.ID, payload any) {
		e.handleNet(transport.Message{From: from, Payload: payload})
	}
	data := func(sender transport.ID, seq uint64, body string) *urbData {
		return &urbData{View: 1, ID: msgID{Sender: sender, Seq: seq}, Kind: kindURB, Body: body}
	}

	before := data(0, 1, "before-flush")
	deliver(0, before)
	if e.vs.delivered[0] != 1 || len(owed(e, 0)) != 1 {
		t.Fatalf("ordinary data not delivered and acknowledged: delivered=%v owed=%v", e.vs.delivered, owed(e, 0))
	}
	e.flushAcks()
	e.mu.Lock()
	e.broadcastDataLocked(kindURB, "own-before-flush")
	e.mu.Unlock()
	own := msgID{Sender: 1, Seq: 1}

	deliver(0, &vcPrepare{ProposalID: 2, Proposer: 0, Members: []transport.ID{0, 1, 2}})
	if !e.blocked {
		t.Fatal("member did not enter the flush on vcPrepare")
	}
	if f, ok := sent.last().(*vcFlush); !ok || len(f.Unstable) != 1 || f.Unstable[0].ID != own {
		t.Fatalf("flush report %#v, want it to carry the own broadcast %v", sent.last(), own)
	}

	late := data(0, 2, "during-flush")
	deliver(0, late)
	if _, ok := e.vs.pending[late.ID]; ok || len(owed(e, 0)) != 0 {
		t.Fatalf("peer data first seen during the flush was staged/acknowledged: pending=%t owed=%v",
			ok, owed(e, 0))
	}
	// A duplicate of what was reported is still re-acknowledged.
	deliver(0, before)
	if len(owed(e, 0)) != 1 {
		t.Fatalf("reported duplicate not re-acknowledged: owed=%v", owed(e, 0))
	}

	// The install's final set carries the late message (its sender reported
	// it): the member delivers it before switching views.
	deliver(0, &vcInstall{
		ProposalID: 2,
		View:       View{ID: 2, Members: []transport.ID{0, 1, 2}, Primary: true},
		Deliveries: []*urbData{before, late, e.vs.pending[own].data},
	})
	e.runUpcalls()
	got := rec.urSeq()
	sort.Strings(got) // the last two are causally independent
	if want := []string{"before-flush", "during-flush", "own-before-flush"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("UR deliveries across the install = %v, want %v", got, want)
	}
	if e.blocked || e.view.ID != 2 {
		t.Fatalf("install did not complete: blocked=%t view=%d", e.blocked, e.view.ID)
	}
}

// TestFlushTimeoutDoesNotCountJoinersAsSurvivors: when a flush times out the
// proposer narrows the proposal to the members that answered, but only if
// those still include a majority of the current view's STATEFUL members. A
// restarted process rejoining under its old identity is formally in the view
// and answers the prepare, yet has no state: counting it let one survivor plus
// that joiner install a view without the third member, discarding every
// acknowledged commit only the dropped member had delivered.
func TestFlushTimeoutDoesNotCountJoinersAsSurvivors(t *testing.T) {
	tests := []struct {
		name        string
		answered    []transport.ID
		wantEjected bool
		wantMembers []transport.ID
	}{
		{"survivor and restarted joiner answered: not a majority", []transport.ID{0, 1}, true, nil},
		{"two survivors answered, joiner silent: narrow to them", []transport.ID{0, 2}, false, []transport.ID{0, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net := memnet.New(memnet.Config{})
			defer net.Close()
			tr, err := net.Endpoint(0)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEndpoint(tr, &recorder{}, Config{Members: []transport.ID{0, 1, 2}})
			if err != nil {
				t.Fatal(err)
			}
			// Process 1 crashed, restarted and asked to rejoin; the proposal
			// readmitting it has been waiting longer than FlushTimeout.
			e.prop = &proposal{
				id:        2,
				members:   []transport.ID{0, 1, 2},
				joiners:   map[transport.ID]bool{1: true},
				responses: make(map[transport.ID]*vcFlush),
				startedAt: time.Now().Add(-2 * e.cfg.FlushTimeout),
			}
			for _, m := range tt.answered {
				e.prop.responses[m] = &vcFlush{ProposalID: 2, From: m, ViewID: 1}
			}

			e.mu.Lock()
			e.maybeFinishProposalLocked(time.Now())
			e.mu.Unlock()

			if tt.wantEjected {
				if e.inPrimary || e.prop != nil {
					t.Fatalf("proposer stayed primary (inPrimary=%t) with proposal %+v", e.inPrimary, e.prop)
				}
				return
			}
			if !e.inPrimary || e.prop == nil || !reflect.DeepEqual(e.prop.members, tt.wantMembers) {
				t.Fatalf("inPrimary=%t proposal=%+v, want a re-proposal over %v", e.inPrimary, e.prop, tt.wantMembers)
			}
		})
	}
}

// TestLaggardRejoinsOnPersistentNewerViewBeacons: a process that still
// believes it is a primary member of view V, while its peers beacon a later
// view for longer than SuspectAfter, was dropped from the view (or lost the
// install) and missed being told. It hears everyone, so it never suspects a
// quorum; unless it ejects itself and asks to rejoin, it stays wedged in V
// forever ("cluster never recovered full membership"). A few newer-view
// beacons alone — an install still in flight — must not trigger it.
func TestLaggardRejoinsOnPersistentNewerViewBeacons(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	tr, err := net.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	e, err := NewEndpoint(tr, rec, Config{Members: []transport.ID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	beacon := func(from transport.ID, view uint64) {
		e.handleNet(transport.Message{From: from, Payload: &heartbeat{View: view, From: from}})
	}

	beacon(0, 2)
	beacon(1, 2)
	if !e.inPrimary || e.behindSince.IsZero() {
		t.Fatalf("first newer-view beacons: inPrimary=%t behindSince=%v, want primary and the clock started",
			e.inPrimary, e.behindSince)
	}

	// An install arriving in time clears the suspicion.
	e.handleNet(transport.Message{From: 0, Payload: &vcInstall{
		ProposalID: 2, View: View{ID: 2, Members: []transport.ID{0, 1, 2}, Primary: true}}})
	if !e.inPrimary || e.view.ID != 2 || !e.behindSince.IsZero() {
		t.Fatalf("after the install: inPrimary=%t view=%d behindSince=%v", e.inPrimary, e.view.ID, e.behindSince)
	}

	// Dropped from view 3 without notice: the beacons keep coming.
	beacon(0, 3)
	e.behindSince = time.Now().Add(-2 * e.cfg.SuspectAfter)
	beacon(1, 3)
	if e.inPrimary || !e.wantJoin {
		t.Fatalf("persistently behind: inPrimary=%t wantJoin=%t, want ejected and rejoining", e.inPrimary, e.wantJoin)
	}
	e.runUpcalls()
	if rec.ejected != 1 {
		t.Fatalf("OnEjected upcalls = %d, want 1", rec.ejected)
	}
}

// sentLog records what an endpoint sends, in order; onSend, if set, runs
// before each send.
type sentLog struct {
	transport.Transport
	to       []transport.ID
	payloads []any
	onSend   func(to transport.ID, payload any)
}

func (s *sentLog) Send(to transport.ID, payload any) error {
	if s.onSend != nil {
		s.onSend(to, payload)
	}
	s.to = append(s.to, to)
	s.payloads = append(s.payloads, payload)
	return s.Transport.Send(to, payload)
}

func (s *sentLog) last() any { return s.payloads[len(s.payloads)-1] }

// acksTo returns the acknowledgement frames sent to peer so far.
func (s *sentLog) acksTo(peer transport.ID) []*urbAck {
	var out []*urbAck
	for i, p := range s.payloads {
		if a, ok := p.(*urbAck); ok && s.to[i] == peer {
			out = append(out, a)
		}
	}
	return out
}

// owed returns the acknowledgements e owes peer and has not sent yet.
func owed(e *Endpoint, peer transport.ID) []msgID {
	for i, m := range e.view.Members {
		if m == peer {
			return e.acks[i].ids
		}
	}
	return nil
}

// unstarted returns endpoint self of a group over members with its sends
// logged. It is not started: the test plays the dispatcher.
func unstarted(t *testing.T, self transport.ID, members ...transport.ID) (*Endpoint, *sentLog, *recorder) {
	t.Helper()
	net := memnet.New(memnet.Config{})
	t.Cleanup(net.Close)
	tr, err := net.Endpoint(self)
	if err != nil {
		t.Fatal(err)
	}
	sent := &sentLog{Transport: tr}
	rec := &recorder{}
	e, err := NewEndpoint(sent, rec, Config{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	return e, sent, rec
}

func urb(sender transport.ID, seq uint64) *urbData {
	return &urbData{View: 1, ID: msgID{Sender: sender, Seq: seq}, Kind: kindURB, Body: fmt.Sprintf("%d:%d", sender, seq)}
}

// TestLateOwnAckCreatesNoState pins the orphan-ack rule: an acknowledgement of
// a message that is delivered and already pruned as stable must not create an
// ack set again — nothing would ever complete it, and gcAcksLocked holds it
// for 30 s (38 k sets, 9 MB, on a 20 s lease-local run). The case that
// produced them was the endpoint's own ack batch, sent to self and handled
// after the third member's ack; no ack is sent to self any more.
func TestLateOwnAckCreatesNoState(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	deliver := func(from transport.ID, payload any) {
		e.handleNet(transport.Message{From: from, Payload: payload})
	}
	id := msgID{Sender: 1, Seq: 1}
	ack := func(from transport.ID) *urbAck { return &urbAck{View: 1, From: from, IDs: []msgID{id}} }

	deliver(1, urb(1, 1))
	if _, ok := e.vs.retained[id]; !ok {
		t.Fatalf("message not delivered on receipt (self + sender are a quorum): pending=%v", e.vs.pending)
	}
	deliver(2, ack(2))
	if len(e.vs.retained) != 0 || len(e.vs.acks) != 0 {
		t.Fatalf("message not pruned as stable: retained=%v acks=%v", e.vs.retained, e.vs.acks)
	}

	deliver(0, ack(0)) // a copy of its own ack, late
	deliver(2, ack(2)) // and a repeated one
	if len(e.vs.acks) != 0 || len(e.vs.ackBorn) != 0 {
		t.Fatalf("late acknowledgements recreated state: acks=%v ackBorn=%v", e.vs.acks, e.vs.ackBorn)
	}

	e.flushAcks()
	if want := []transport.ID{1}; !reflect.DeepEqual(sent.to, want) {
		t.Fatalf("own acks sent to %v this round, want %v (the one to 2 is deferred)", sent.to, want)
	}
}

// TestReceiverAcksOnlySenderThisRound: in a view of three, a receiver's quorum
// is itself plus the sender, so it delivers at receipt and one frame leaves
// this round, an ack to the sender. The ack the other receiver needs for
// stability rides the next data frame to it.
func TestReceiverAcksOnlySenderThisRound(t *testing.T) {
	e, sent, rec := unstarted(t, 1, 0, 1, 2)
	m := urb(0, 1)
	e.handleNet(transport.Message{From: 0, Payload: m})
	e.flushAcks()
	if !reflect.DeepEqual(sent.to, []transport.ID{0}) {
		t.Fatalf("frames this round went to %v, want one to the sender", sent.to)
	}
	if a := sent.acksTo(0); len(a) != 1 || !reflect.DeepEqual(a[0].IDs, []msgID{m.ID}) {
		t.Fatalf("acks to the sender = %v", a)
	}
	e.runUpcalls()
	if got := rec.urSeq(); !reflect.DeepEqual(got, []string{"0:1"}) {
		t.Fatalf("UR deliveries = %v, want the message delivered at receipt", got)
	}

	e.mu.Lock()
	e.broadcastDataLocked(kindURB, "reply")
	e.mu.Unlock()
	var to2 *urbData
	for i, p := range sent.payloads {
		if d, ok := p.(*urbData); ok {
			switch sent.to[i] {
			case 0:
				if d.Acks != nil {
					t.Fatalf("data frame to the sender carries acks %v already sent", d.Acks)
				}
			case 2:
				to2 = d
			}
		}
	}
	if to2 == nil || !reflect.DeepEqual(to2.Acks, []msgID{m.ID}) {
		t.Fatalf("data frame to the other receiver = %+v, want it to carry the deferred ack", to2)
	}
	if d := e.vs.pending[to2.ID].data; d.Acks != nil {
		t.Fatalf("the staged copy carries acks %v: flush reports and retransmissions would too", d.Acks)
	}
	n := len(sent.to)
	e.flushAcks()
	if len(sent.to) != n || len(owed(e, 2)) != 0 {
		t.Fatalf("acks left after the piggyback: sent %v, owed %v", sent.to[n:], owed(e, 2))
	}
}

// TestDeferredAckLeavesAtTickOrWhenMany: with no data frame to carry it, the
// ack to the other receiver leaves at the next tick, or as soon as
// maxOwedAcks are owed to it.
func TestDeferredAckLeavesAtTickOrWhenMany(t *testing.T) {
	e, sent, _ := unstarted(t, 1, 0, 1, 2)
	e.handleNet(transport.Message{From: 0, Payload: urb(0, 1)})
	e.flushAcks()
	if a := sent.acksTo(2); len(a) != 0 {
		t.Fatalf("deferred ack sent this round: %v", a)
	}
	e.tick()
	e.flushAcks()
	if a := sent.acksTo(2); len(a) != 1 || len(a[0].IDs) != 1 {
		t.Fatalf("acks to the other receiver after a tick = %v, want one", a)
	}

	e, sent, _ = unstarted(t, 1, 0, 1, 2)
	for seq := uint64(1); seq <= maxOwedAcks; seq++ {
		e.handleNet(transport.Message{From: 0, Payload: urb(0, seq)})
		e.flushAcks()
		if a := sent.acksTo(2); seq < maxOwedAcks && len(a) != 0 {
			t.Fatalf("%d owed acks sent early: %v", seq, a)
		}
	}
	if a := sent.acksTo(2); len(a) != 1 || len(a[0].IDs) != maxOwedAcks {
		t.Fatalf("acks to the other receiver at %d owed = %v", maxOwedAcks, a)
	}
}

// TestAllAcksDueFromFourMembers: with a quorum of three a receiver needs a
// third holder, so every member gets the ack this round.
func TestAllAcksDueFromFourMembers(t *testing.T) {
	e, sent, _ := unstarted(t, 1, 0, 1, 2, 3, 4)
	m := urb(0, 1)
	e.handleNet(transport.Message{From: 0, Payload: m})
	if e.vs.delivered[0] != 0 {
		t.Fatal("delivered with two holders of five")
	}
	e.flushAcks()
	if want := []transport.ID{0, 2, 3, 4}; !reflect.DeepEqual(sent.to, want) {
		t.Fatalf("acks this round went to %v, want %v", sent.to, want)
	}
}

// TestRelayerCountsOnlyInsideTheView: a copy relayed by a member counts the
// relayer as a holder (and is acknowledged to it); a copy arriving from
// outside the view counts only the sender.
func TestRelayerCountsOnlyInsideTheView(t *testing.T) {
	e, sent, _ := unstarted(t, 1, 0, 1, 2, 3, 4)
	e.handleNet(transport.Message{From: 2, Payload: urb(0, 1)})
	if e.vs.delivered[0] != 1 {
		t.Fatalf("relayed copy did not make a quorum of sender, relayer and self: acks=%v", e.vs.acks)
	}
	e.handleNet(transport.Message{From: 9, Payload: urb(0, 2)})
	id := msgID{Sender: 0, Seq: 2}
	if set := e.vs.acks[id]; e.vs.delivered[0] != 1 || set[9] || len(set) != 2 {
		t.Fatalf("copy from a non-member counted it: delivered=%d acks=%v", e.vs.delivered[0], set)
	}
	e.flushAcks()
	for _, to := range sent.to {
		if to == 9 {
			t.Fatal("acknowledged to a non-member")
		}
	}
}

// TestBroadcastStagesBeforeSendingNotToSelf: the sender holds its message
// before any frame leaves, sends none to itself, and owes nobody an ack of
// its own message.
func TestBroadcastStagesBeforeSendingNotToSelf(t *testing.T) {
	e, sent, rec := unstarted(t, 0, 0, 1, 2)
	id := msgID{Sender: 0, Seq: 1}
	sent.onSend = func(to transport.ID, payload any) {
		if to == 0 {
			t.Errorf("sent %T to self", payload)
		}
		if _, ok := e.vs.pending[id]; !ok {
			t.Errorf("frame to %d left before the message was staged", to)
		}
	}
	e.mu.Lock()
	e.broadcastDataLocked(kindOAB, "x")
	e.mu.Unlock()
	if !reflect.DeepEqual(sent.to, []transport.ID{1, 2}) {
		t.Fatalf("broadcast sent to %v, want the two peers", sent.to)
	}
	if len(owed(e, 1))+len(owed(e, 2)) != 0 {
		t.Fatalf("sender owes acks of its own message: %v %v", owed(e, 1), owed(e, 2))
	}
	e.runUpcalls()
	if got := rec.optSeq(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Fatalf("Opt-deliveries at the sender = %v, want the broadcast", got)
	}
	e.handleNet(transport.Message{From: 1, Payload: &urbAck{View: 1, From: 1, IDs: []msgID{id}}})
	if _, ok := e.vs.pending[id]; ok {
		t.Fatal("not UR-delivered on the first receiver's ack")
	}
}
