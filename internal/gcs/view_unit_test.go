package gcs

import (
	"reflect"
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
// must still reach the member through the install's final set, and the
// member's own messages looping back during the flush stay exempt (they are
// resubmitted by their sender when no report names them).
func TestFlushingMemberDoesNotAckNewPeerData(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	tr, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	e, err := NewEndpoint(tr, rec, Config{Members: []transport.ID{0, 1}})
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
	if _, ok := e.vs.pending[before.ID]; !ok || len(e.ackBatch) != 1 {
		t.Fatalf("ordinary data not staged and acknowledged: pending=%v acks=%v", e.vs.pending, e.ackBatch)
	}
	e.ackBatch = nil

	deliver(0, &vcPrepare{ProposalID: 2, Proposer: 0, Members: []transport.ID{0, 1, 2}})
	if !e.blocked {
		t.Fatal("member did not enter the flush on vcPrepare")
	}

	late := data(0, 2, "during-flush")
	deliver(0, late)
	if _, ok := e.vs.pending[late.ID]; ok || len(e.ackBatch) != 0 {
		t.Fatalf("peer data first seen during the flush was staged/acknowledged: pending=%t acks=%v",
			ok, e.ackBatch)
	}
	// A duplicate of what was reported is still re-acknowledged, and the
	// member's own broadcast looping back is still staged.
	deliver(0, before)
	own := data(1, 1, "own-loopback")
	deliver(1, own)
	if _, ok := e.vs.pending[own.ID]; !ok || len(e.ackBatch) != 2 {
		t.Fatalf("reported duplicate / own loopback mishandled: ownPending=%t acks=%v", ok, e.ackBatch)
	}

	// The install's final set carries the late message (its sender reported
	// it): the member delivers it before switching views.
	deliver(0, &vcInstall{
		ProposalID: 2,
		View:       View{ID: 2, Members: []transport.ID{0, 1, 2}, Primary: true},
		Deliveries: []*urbData{before, late},
	})
	e.runUpcalls()
	if got, want := rec.urSeq(), []string{"before-flush", "during-flush"}; !reflect.DeepEqual(got, want) {
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

// sentTo records the destinations of what an endpoint sends.
type sentTo struct {
	transport.Transport
	to []transport.ID
}

func (s *sentTo) Send(to transport.ID, payload any) error {
	s.to = append(s.to, to)
	return s.Transport.Send(to, payload)
}

// TestLateOwnAckCreatesNoState pins the orphan-ack rule: an acknowledgement of
// a message that is delivered and already pruned as stable must not create an
// ack set again — nothing would ever complete it, and gcAcksLocked holds it
// for 30 s (38 k sets, 9 MB, on a 20 s lease-local run). The case that
// produced them was the endpoint's own ack batch, sent to self and handled
// after the third member's ack; it is no longer sent either.
func TestLateOwnAckCreatesNoState(t *testing.T) {
	net := memnet.New(memnet.Config{})
	defer net.Close()
	tr, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &sentTo{Transport: tr}
	e, err := NewEndpoint(rec, &recorder{}, Config{Members: []transport.ID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the test plays the dispatcher.
	deliver := func(from transport.ID, payload any) {
		e.handleNet(transport.Message{From: from, Payload: payload})
	}
	id := msgID{Sender: 1, Seq: 1}
	ack := func(from transport.ID) *urbAck { return &urbAck{View: 1, From: from, IDs: []msgID{id}} }

	deliver(1, &urbData{View: 1, ID: id, Kind: kindURB, Body: "ws"})
	deliver(1, ack(1))
	if _, ok := e.vs.retained[id]; !ok {
		t.Fatalf("message not delivered on a quorum of acks: pending=%v", e.vs.pending)
	}
	deliver(2, ack(2))
	if len(e.vs.retained) != 0 || len(e.vs.acks) != 0 {
		t.Fatalf("message not pruned as stable: retained=%v acks=%v", e.vs.retained, e.vs.acks)
	}

	deliver(0, ack(0)) // the loop-back copy, late
	deliver(2, ack(2)) // and a repeated one
	if len(e.vs.acks) != 0 || len(e.vs.ackBorn) != 0 {
		t.Fatalf("late acknowledgements recreated state: acks=%v ackBorn=%v", e.vs.acks, e.vs.ackBorn)
	}

	e.flushAcks()
	if want := []transport.ID{1, 2}; !reflect.DeepEqual(rec.to, want) {
		t.Fatalf("own ack batch sent to %v, want %v", rec.to, want)
	}
}
