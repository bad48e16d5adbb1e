package gcs

import (
	"fmt"
	"reflect"
	"slices"
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
	vs := newViewState(View{ID: 1, Members: []transport.ID{0, 1, 2}}, 0)
	vs.delivered[0] = 2
	vs.delivered[1] = 1

	tests := []struct {
		name string
		d    *urbData
		want bool
	}{
		{"next in FIFO, deps met",
			&urbData{ID: msgID{Sender: 0, Seq: 3}, VC: []uint64{2, 1, 0}}, true},
		{"FIFO gap",
			&urbData{ID: msgID{Sender: 0, Seq: 5}, VC: []uint64{4, 0, 0}}, false},
		{"causal dep missing",
			&urbData{ID: msgID{Sender: 0, Seq: 3}, VC: []uint64{2, 0, 1}}, false},
		{"own VC entry ignored",
			&urbData{ID: msgID{Sender: 1, Seq: 2}, VC: []uint64{0, 99, 0}}, true},
	}
	for _, tt := range tests {
		if got := vs.causallyReady(vs.view.index(tt.d.ID.Sender), tt.d); got != tt.want {
			t.Errorf("%s: causallyReady = %t, want %t", tt.name, got, tt.want)
		}
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
		return &urbData{View: 1, ID: msgID{Sender: sender, Seq: seq}, Kind: kindURB, VC: make([]uint64, 2), Body: body}
	}

	before := data(0, 1, "before-flush")
	deliver(0, before)
	if e.vs.delivered[0] != 1 || owed(e, 0).n != 1 {
		t.Fatalf("ordinary data not delivered and acknowledged: delivered=%v owed=%v", e.vs.delivered, owed(e, 0))
	}
	e.flushAcks()
	e.mu.Lock()
	e.sendDataLocked(kindURB, "own-before-flush")
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
	if _, pm := e.vs.find(late.ID); pm != nil || owed(e, 0).n != 0 || e.vs.held[0] != 1 {
		t.Fatalf("peer data first seen during the flush was staged/acknowledged: staged=%t owed=%v held=%v",
			pm != nil, owed(e, 0), e.vs.held)
	}
	// A duplicate of what was reported is still re-acknowledged.
	deliver(0, before)
	if owed(e, 0).n != 1 {
		t.Fatalf("reported duplicate not re-acknowledged: owed=%v", owed(e, 0))
	}

	// The install's final set carries the late message (its sender reported
	// it): the member delivers it before switching views.
	_, ownMsg := e.vs.find(own)
	deliver(0, &vcInstall{
		ProposalID: 2,
		View:       View{ID: 2, Members: []transport.ID{0, 1, 2}, Primary: true},
		Deliveries: []*urbData{before, late, ownMsg.data},
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

// TestPrepareAfterInstallInSameRoundStaysBlocked: the coordinator's outbox
// holds while the install it computed has not left, and that hold is not the
// flush block. A competing proposer's prepare answered later in the same
// dispatch round blocks this process, and its flush report is final: shipping
// the install must not unblock it, or it would stage and acknowledge peer data
// it first sees after answering.
func TestPrepareAfterInstallInSameRoundStaysBlocked(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	deliver := func(from transport.ID, payload any) {
		e.handleNet(transport.Message{From: from, Payload: payload})
	}
	dataSent := func() int {
		n := 0
		for _, p := range sent.payloads {
			if _, ok := p.(*urbData); ok {
				n++
			}
		}
		return n
	}
	members := []transport.ID{0, 1, 2}
	e.prop = &proposal{id: 2, members: members, joiners: map[transport.ID]bool{},
		responses: make(map[transport.ID]*vcFlush), startedAt: time.Now()}
	for _, m := range members {
		deliver(m, &vcFlush{ProposalID: 2, From: m, ViewID: 1})
	}
	if e.view.ID != 2 || e.pendingSend == nil {
		t.Fatalf("after the last flush: view=%d pendingSend=%t, want view 2 installed and not shipped",
			e.view.ID, e.pendingSend != nil)
	}
	if err := e.URBroadcast("held"); err != nil {
		t.Fatal(err)
	}
	e.drainOutbox()
	if n := dataSent(); n != 0 || len(e.outbox) != 1 {
		t.Fatalf("outbox released before the install left: %d data frames sent, outbox %d", n, len(e.outbox))
	}

	deliver(1, &vcPrepare{ProposalID: 3, Proposer: 1, Members: members})
	if _, ok := sent.last().(*vcFlush); !ok || !e.blocked {
		t.Fatalf("prepare 3 not answered (last sent %T) or not blocked=%t", sent.last(), e.blocked)
	}
	e.distributePendingInstall()
	if e.pendingSend != nil || !e.blocked || e.blockedSince.IsZero() {
		t.Fatalf("after shipping the install: pendingSend=%t blocked=%t blockedSince=%v, want shipped and still blocked",
			e.pendingSend != nil, e.blocked, e.blockedSince)
	}
	installs := 0
	for _, p := range sent.payloads {
		if _, ok := p.(*vcInstall); ok {
			installs++
		}
	}
	if installs != 2 {
		t.Fatalf("install sent %d times, want once to each peer", installs)
	}
	e.drainOutbox()
	if n := dataSent(); n != 0 {
		t.Fatalf("%d data frames sent while answering prepare 3", n)
	}
	late := &urbData{View: 2, ID: msgID{Sender: 1, Seq: 1}, Kind: kindURB, VC: make([]uint64, 3), Body: "late"}
	deliver(1, late)
	if _, pm := e.vs.find(late.ID); pm != nil || e.vs.held[1] != 0 {
		t.Fatalf("peer data first seen after answering prepare 3 was staged: held=%v", e.vs.held)
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
	e, sent, rec := unstarted(t, 2, 0, 1, 2)
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
	if reqs := joinReqsSent(sent); len(reqs) != 0 {
		t.Fatalf("join requests sent before the laggard was behind for good: %v", reqs)
	}

	// Dropped from view 3 without notice: the beacons keep coming.
	beacon(0, 3)
	e.behindSince = time.Now().Add(-2 * e.cfg.SuspectAfter)
	beacon(1, 3)
	want := map[transport.ID]joinReq{0: {From: 2, ViewID: 2}, 1: {From: 2, ViewID: 2}}
	if reqs := joinReqsSent(sent); e.inPrimary || !reflect.DeepEqual(reqs, want) {
		t.Fatalf("persistently behind: inPrimary=%t join requests %v, want ejected and %v", e.inPrimary, reqs, want)
	}
	e.runUpcalls()
	if rec.ejected != 1 {
		t.Fatalf("OnEjected upcalls = %d, want 1", rec.ejected)
	}
}

// TestStaleBeaconsAloneAdmitNoMember: a member of the coordinator's view that
// beacons an older view for longer than SuspectAfter is not readmitted on
// that evidence. A process comes back on its own join request, which carries
// its frontier; readmitting on beacons would do it with no frontier (a full
// transfer), and right after an install a healthy member's in-flight beacons
// carry the older view too.
func TestStaleBeaconsAloneAdmitNoMember(t *testing.T) {
	net := memnet.New(memnet.Config{})
	t.Cleanup(net.Close)
	tr, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	sent := &sentLog{Transport: tr}
	members := []transport.ID{0, 1, 2}
	e, err := NewEndpoint(sent, &recorder{}, Config{Members: members,
		HeartbeatInterval: time.Minute, SuspectAfter: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e.handleNet(transport.Message{From: 1, Payload: &vcInstall{
		ProposalID: 2, View: View{ID: 2, Members: members, Primary: true}}})
	beacons := func() {
		e.handleNet(transport.Message{From: 1, Payload: &heartbeat{View: 1, From: 1}})
		e.handleNet(transport.Message{From: 2, Payload: &heartbeat{View: 2, From: 2}})
	}
	beacons()
	time.Sleep(2 * e.cfg.SuspectAfter)
	beacons()
	e.tick()
	if _, ok := e.joinReqs[1]; ok || e.prop != nil {
		t.Fatalf("stale beacons: join requests %v, proposal %+v; want neither", e.joinReqs, e.prop)
	}
	for _, p := range sent.payloads {
		if _, ok := p.(*vcPrepare); ok {
			t.Fatalf("stale beacons alone started a view change: %+v", p)
		}
	}

	front := map[transport.ID]uint64{0: 4, 1: 3}
	e.handleNet(transport.Message{From: 1, Payload: &joinReq{From: 1, ViewID: 1, Frontier: front}})
	e.tick()
	if e.prop == nil || !reflect.DeepEqual(e.prop.joiners, map[transport.ID]bool{1: true}) ||
		!reflect.DeepEqual(e.joinReqs[1], front) {
		t.Fatalf("after its join request: proposal %+v, join requests %v; want 1 admitted with its frontier",
			e.prop, e.joinReqs)
	}
}

// TestEjectedEndpointAsksToRejoin: a process ejected from the primary
// component, by an eject notice or by losing sight of a quorum, asks to be
// readmitted at its next tick, advertising its view and its frontier. Its
// Config does not opt in: nobody else readmits a process that has not
// asked, so one that never asked would stay out for good.
func TestEjectedEndpointAsksToRejoin(t *testing.T) {
	tests := []struct {
		name  string
		eject func(e *Endpoint)
	}{
		{"eject notice", func(e *Endpoint) {
			e.handleNet(transport.Message{From: 0, Payload: &ejectNotice{ViewID: 2}})
		}},
		{"quorum lost", func(e *Endpoint) {
			long := time.Now().Add(-2 * e.cfg.SuspectAfter)
			e.lastHeard[0], e.lastHeard[2] = long, long
			e.tick()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			net := memnet.New(memnet.Config{})
			t.Cleanup(net.Close)
			tr, err := net.Endpoint(1)
			if err != nil {
				t.Fatal(err)
			}
			sent := &sentLog{Transport: tr}
			front := map[transport.ID]uint64{0: 2, 1: 5}
			e, err := NewEndpoint(sent, &recorder{front: front},
				Config{Members: []transport.ID{0, 1, 2}, HeartbeatInterval: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			tt.eject(e)
			if e.inPrimary {
				t.Fatal("not ejected")
			}
			if reqs := joinReqsSent(sent); len(reqs) != 0 {
				t.Fatalf("join requests sent at the ejection: %v", reqs)
			}
			e.tick()
			want := joinReq{From: 1, ViewID: 1, Frontier: front}
			if reqs := joinReqsSent(sent); !reflect.DeepEqual(reqs, map[transport.ID]joinReq{0: want, 2: want}) {
				t.Fatalf("join requests after the next tick: %v, want %+v to 0 and 2", reqs, want)
			}
		})
	}
}

// joinReqsSent returns the last join request sent to each peer.
func joinReqsSent(s *sentLog) map[transport.ID]joinReq {
	out := make(map[transport.ID]joinReq)
	for i, p := range s.payloads {
		if r, ok := p.(*joinReq); ok {
			out[s.to[i]] = *r
		}
	}
	return out
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

// owed returns what e owes peer and has not sent yet.
func owed(e *Endpoint, peer transport.ID) owedAck {
	if k := e.view.index(peer); k >= 0 {
		return e.vs.owed[k]
	}
	return owedAck{}
}

// unstarted returns endpoint self of a group over members with its sends
// logged. It is not started: the test plays the dispatcher. Its heartbeat
// interval is a minute, so no member looks quiet unless the test says so.
func unstarted(t testing.TB, self transport.ID, members ...transport.ID) (*Endpoint, *sentLog, *recorder) {
	t.Helper()
	net := memnet.New(memnet.Config{})
	t.Cleanup(net.Close)
	tr, err := net.Endpoint(self)
	if err != nil {
		t.Fatal(err)
	}
	sent := &sentLog{Transport: tr}
	rec := &recorder{}
	e, err := NewEndpoint(sent, rec, Config{Members: members, HeartbeatInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return e, sent, rec
}

// urb is message seq from sender in view 1 of n members, with no causal
// dependencies.
func urb(n int, sender transport.ID, seq uint64) *urbData {
	return &urbData{View: 1, ID: msgID{Sender: sender, Seq: seq}, Kind: kindURB, VC: make([]uint64, n),
		Body: fmt.Sprintf("%d:%d", sender, seq)}
}

// TestLateOwnAckCreatesNoState: an acknowledgement is a cumulative held
// vector, so a late or repeated one — a copy of the process's own included,
// which it never sends to itself — changes nothing, and a message pruned as
// stable stays pruned.
func TestLateOwnAckCreatesNoState(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	deliver := func(from transport.ID, payload any) {
		e.handleNet(transport.Message{From: from, Payload: payload})
	}
	id := msgID{Sender: 1, Seq: 1}
	ack := func(from transport.ID) *urbAck { return &urbAck{View: 1, From: from, Held: []uint64{0, 1, 0}} }

	deliver(1, urb(3, 1, 1))
	if _, pm := e.vs.find(id); pm == nil || e.vs.delivered[1] != 1 {
		t.Fatalf("message not delivered and retained on receipt (self + sender are a quorum): delivered=%v", e.vs.delivered)
	}
	deliver(2, ack(2))
	if _, pm := e.vs.find(id); pm != nil {
		t.Fatalf("message not pruned as stable: retained=%v", e.vs.retained)
	}

	state := slices.Clone(e.vs.ackedBy)
	deliver(0, ack(0)) // a copy of its own ack, late
	deliver(2, ack(2)) // and a repeated one
	if !slices.Equal(e.vs.ackedBy, state) || e.vs.delivered[1] != 1 {
		t.Fatalf("late acknowledgements changed state: ackedBy %v -> %v", state, e.vs.ackedBy)
	}

	e.flushAcks()
	if len(sent.to) != 0 {
		t.Fatalf("own acks sent to %v this round, want none (2, not 0, is 1's designated receiver)", sent.to)
	}
}

// TestReceiverAcksOnlySenderThisRound: in a view of three, a receiver's quorum
// is itself plus the sender, so it delivers at receipt; the sender's
// designated receiver sends one frame this round, its held vector to the
// sender. What the other receiver is owed for stability rides this process's
// next data frame, which settles everything owed.
func TestReceiverAcksOnlySenderThisRound(t *testing.T) {
	e, sent, rec := unstarted(t, 1, 0, 1, 2)
	e.handleNet(transport.Message{From: 0, Payload: urb(3, 0, 1)})
	e.flushAcks()
	if !reflect.DeepEqual(sent.to, []transport.ID{0}) {
		t.Fatalf("frames this round went to %v, want one to the sender", sent.to)
	}
	if a := sent.acksTo(0); len(a) != 1 || !reflect.DeepEqual(a[0].Held, []uint64{1, 0, 0}) {
		t.Fatalf("acks to the sender = %v", a)
	}
	e.runUpcalls()
	if got := rec.urSeq(); !reflect.DeepEqual(got, []string{"0:1"}) {
		t.Fatalf("UR deliveries = %v, want the message delivered at receipt", got)
	}
	if o := owed(e, 2); o.n != 1 || o.due {
		t.Fatalf("owed to the other receiver = %+v, want one deferred ack", o)
	}

	e.mu.Lock()
	e.sendDataLocked(kindURB, "reply")
	e.mu.Unlock()
	for i, p := range sent.payloads {
		if d, ok := p.(*urbData); ok && !reflect.DeepEqual(d.Acks, []uint64{1, 0, 0}) {
			t.Fatalf("data frame to %d carries acks %v, want the held vector", sent.to[i], d.Acks)
		}
	}
	n := len(sent.to)
	e.flushAcks()
	if len(sent.to) != n || owed(e, 0) != (owedAck{}) || owed(e, 2) != (owedAck{}) {
		t.Fatalf("acks left after the piggyback: sent %v, owed %+v %+v", sent.to[n:], owed(e, 0), owed(e, 2))
	}
}

// TestOnlyDesignatedReceiverAcksSenderThisRound: in a view of three the
// sender needs one acknowledgement, so only its designated receiver — the
// member after it in view order, wrapping around — sends one this round.
func TestOnlyDesignatedReceiverAcksSenderThisRound(t *testing.T) {
	tests := []struct {
		self, sender transport.ID
		want         []transport.ID
	}{
		{1, 0, []transport.ID{0}},
		{2, 0, nil},
		{0, 2, []transport.ID{2}},
		{1, 2, nil},
	}
	for _, tt := range tests {
		e, sent, _ := unstarted(t, tt.self, 0, 1, 2)
		e.handleNet(transport.Message{From: tt.sender, Payload: urb(3, tt.sender, 1)})
		e.flushAcks()
		if !reflect.DeepEqual(sent.to, tt.want) {
			t.Errorf("receiver %d of a message from %d sent acks to %v this round, want %v", tt.self, tt.sender, sent.to, tt.want)
		}
		if got := e.vs.delivered[e.view.index(tt.sender)]; got != 1 {
			t.Errorf("receiver %d delivered %d messages from %d, want 1 at receipt", tt.self, got, tt.sender)
		}
	}
}

// TestNonDesignatedReceiverAcksAtOnceWhenDesignatedIsQuiet: once the sender's
// designated receiver has been silent for longer than HeartbeatInterval + Tick
// (it may have crashed), the other receiver acknowledges to the sender at once,
// and stops again when the designated one is heard.
func TestNonDesignatedReceiverAcksAtOnceWhenDesignatedIsQuiet(t *testing.T) {
	e, sent, _ := unstarted(t, 2, 0, 1, 2)
	e.lastHeard[1] = time.Now().Add(-2 * e.cfg.HeartbeatInterval)
	e.handleNet(transport.Message{From: 0, Payload: urb(3, 0, 1)})
	e.flushAcks()
	if a := sent.acksTo(0); !reflect.DeepEqual(sent.to, []transport.ID{0}) || !reflect.DeepEqual(a[0].Held, []uint64{1, 0, 0}) {
		t.Fatalf("frames this round went to %v (acks to the sender %v), want the held vector to the sender", sent.to, a)
	}

	e.handleNet(transport.Message{From: 1, Payload: &heartbeat{View: 1, From: 1}})
	e.handleNet(transport.Message{From: 0, Payload: urb(3, 0, 2)})
	e.flushAcks()
	if len(sent.to) != 1 {
		t.Fatalf("acks sent to %v after the designated receiver was heard again", sent.to[1:])
	}
}

// TestAckFromOutsideTheViewChangesNoState: a held vector from a process
// outside the view, of the wrong length or of another view counts for
// nothing.
func TestAckFromOutsideTheViewChangesNoState(t *testing.T) {
	e, _, _ := unstarted(t, 0, 0, 1, 2)
	e.mu.Lock()
	e.sendDataLocked(kindURB, "x")
	e.mu.Unlock()
	state := slices.Clone(e.vs.ackedBy)
	for _, a := range []*urbAck{
		{View: 1, From: 9, Held: []uint64{1, 1, 1}},
		{View: 1, From: 1, Held: []uint64{1, 1}},
		{View: 2, From: 1, Held: []uint64{1, 1, 1}},
	} {
		e.handleNet(transport.Message{From: a.From, Payload: a})
	}
	if !slices.Equal(e.vs.ackedBy, state) || e.vs.delivered[0] != 0 {
		t.Fatalf("foreign acks changed state: ackedBy %v -> %v, delivered %v", state, e.vs.ackedBy, e.vs.delivered)
	}
}

// TestDeferredAckLeavesAtTickOrWhenMany: with no data frame to carry it, the
// ack to the other receiver leaves at the next tick, or as soon as
// maxOwedAcks are owed to it.
func TestDeferredAckLeavesAtTickOrWhenMany(t *testing.T) {
	e, sent, _ := unstarted(t, 1, 0, 1, 2)
	e.handleNet(transport.Message{From: 0, Payload: urb(3, 0, 1)})
	e.flushAcks()
	if a := sent.acksTo(2); len(a) != 0 {
		t.Fatalf("deferred ack sent this round: %v", a)
	}
	e.tick()
	e.flushAcks()
	if a := sent.acksTo(2); len(a) != 1 || !reflect.DeepEqual(a[0].Held, []uint64{1, 0, 0}) {
		t.Fatalf("acks to the other receiver after a tick = %v, want one", a)
	}

	e, sent, _ = unstarted(t, 1, 0, 1, 2)
	for seq := uint64(1); seq <= maxOwedAcks; seq++ {
		e.handleNet(transport.Message{From: 0, Payload: urb(3, 0, seq)})
		e.flushAcks()
		if a := sent.acksTo(2); seq < maxOwedAcks && len(a) != 0 {
			t.Fatalf("%d owed acks sent early: %v", seq, a)
		}
	}
	if a := sent.acksTo(2); len(a) != 1 || a[0].Held[0] != maxOwedAcks {
		t.Fatalf("acks to the other receiver at %d owed = %v", maxOwedAcks, a)
	}
}

// TestAllAcksDueFromFourMembers: with a quorum of three a receiver needs a
// third holder, so every member gets the ack this round.
func TestAllAcksDueFromFourMembers(t *testing.T) {
	e, sent, _ := unstarted(t, 1, 0, 1, 2, 3, 4)
	e.handleNet(transport.Message{From: 0, Payload: urb(5, 0, 1)})
	if e.vs.delivered[0] != 0 {
		t.Fatal("delivered with two holders of five")
	}
	e.flushAcks()
	if want := []transport.ID{0, 2, 3, 4}; !reflect.DeepEqual(sent.to, want) {
		t.Fatalf("acks this round went to %v, want %v", sent.to, want)
	}
}

// TestRelayerCountsOnlyInsideTheView: a relayed copy proves only that its
// sender holds the message. A relaying member is counted through its own held
// vector (and acknowledged to at once); a relayer outside the view is never
// counted nor acknowledged to.
func TestRelayerCountsOnlyInsideTheView(t *testing.T) {
	e, sent, _ := unstarted(t, 1, 0, 1, 2, 3, 4)
	e.handleNet(transport.Message{From: 2, Payload: urb(5, 0, 1)})
	if e.vs.delivered[0] != 0 || e.vs.holders(0, 1) != 2 {
		t.Fatalf("relayed copy counted its relayer: delivered=%d holders=%d", e.vs.delivered[0], e.vs.holders(0, 1))
	}
	e.handleNet(transport.Message{From: 2, Payload: &urbAck{View: 1, From: 2, Held: []uint64{1, 0, 0, 0, 0}}})
	if e.vs.delivered[0] != 1 {
		t.Fatalf("the relayer's held vector did not complete the quorum: ackedBy=%v", e.vs.ackedBy)
	}
	e.handleNet(transport.Message{From: 9, Payload: urb(5, 0, 2)})
	if e.vs.delivered[0] != 1 || e.vs.holders(0, 2) != 2 {
		t.Fatalf("copy from a non-member counted it: delivered=%d holders=%d", e.vs.delivered[0], e.vs.holders(0, 2))
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
		if _, pm := e.vs.find(id); pm == nil {
			t.Errorf("frame to %d left before the message was staged", to)
		}
	}
	e.mu.Lock()
	e.sendDataLocked(kindOAB, "x")
	e.mu.Unlock()
	if !reflect.DeepEqual(sent.to, []transport.ID{1, 2}) {
		t.Fatalf("broadcast sent to %v, want the two peers", sent.to)
	}
	if owed(e, 1).n+owed(e, 2).n != 0 {
		t.Fatalf("sender owes acks of its own message: %+v %+v", owed(e, 1), owed(e, 2))
	}
	e.runUpcalls()
	if got := rec.optSeq(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Fatalf("Opt-deliveries at the sender = %v, want the broadcast", got)
	}
	e.handleNet(transport.Message{From: 1, Payload: &urbAck{View: 1, From: 1, Held: []uint64{1, 0, 0}}})
	if len(e.vs.pending[0]) != 0 {
		t.Fatal("not UR-delivered on the first receiver's ack")
	}
}

// TestFlushDeliversOrdersCausally: in a view change's final set, the order
// slots a frame carries (Orders) take effect where the frame falls in causal
// order. A message its sender broadcast after TO-delivering a payload — a
// write-set committed under a lease request that carried its transaction's
// write-set — reaches the application after that payload's TO-delivery here
// too, not after every other message of the final set.
func TestFlushDeliversOrdersCausally(t *testing.T) {
	e, _, rec := unstarted(t, 2, 0, 1, 2)
	request := &urbData{View: 1, ID: msgID{Sender: 1, Seq: 1}, Kind: kindOAB, VC: []uint64{0, 0, 0}, Body: "request"}
	order := &urbData{View: 1, ID: msgID{Sender: 0, Seq: 1}, Kind: kindOrder, VC: []uint64{0, 1, 0},
		Orders: []orderEntry{{ID: request.ID, GSeq: 0}}}
	// Sender 1 TO-delivered the request (it delivered the order), then sent.
	after := &urbData{View: 1, ID: msgID{Sender: 1, Seq: 2}, Kind: kindURB, VC: []uint64{1, 1, 0}, Body: "after"}

	var toBefore []string
	rec.onURD = func(_ transport.ID, body any) {
		if body == "after" {
			rec.mu.Lock()
			toBefore = slices.Clone(rec.to)
			rec.mu.Unlock()
		}
	}
	e.mu.Lock()
	e.deliverFlushSetLocked(&vcInstall{
		ProposalID: 2,
		View:       View{ID: 2, Members: []transport.ID{0, 1, 2}, Primary: true},
		Deliveries: []*urbData{request, order, after},
		Orders:     []orderEntry{{ID: request.ID, GSeq: 0}},
	})
	calls := e.upcalls
	e.upcalls = nil
	e.mu.Unlock()
	for _, u := range calls {
		u.call(rec, u.from, u.body)
	}
	if !slices.Equal(toBefore, []string{"request"}) {
		t.Fatalf("TO-delivered before the later message: %v, want [request]", toBefore)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if !slices.Equal(rec.to, []string{"request"}) {
		t.Fatalf("TO-delivered %v, want [request] once", rec.to)
	}
}

// TestOlderViewFlushReportAddsNothing: a member that missed an install
// answers the next prepare from its older view. It is readmitted with a
// full state transfer, and nothing in its report reaches the install: its
// order slots name message IDs of its own view, which can collide with this
// view's (a message ID is a sender and a sequence number), and its slot count
// is its view's. Here the current view's unordered request must get slot 0:
// the stale report's slot 7 for the same ID could put it among slots this
// view has already given out, and its count of 9 would renumber it.
func TestOlderViewFlushReportAddsNothing(t *testing.T) {
	members := []transport.ID{0, 1, 2}
	e, _, _ := unstarted(t, 0, members...)
	e.handleNet(transport.Message{From: 1, Payload: &vcInstall{
		ProposalID: 2, View: View{ID: 2, Members: members, Primary: true}}})
	request := &urbData{View: 2, ID: msgID{Sender: 2, Seq: 1}, Kind: kindOAB, VC: make([]uint64, 3), Body: "request"}
	old := &urbData{View: 1, ID: msgID{Sender: 1, Seq: 4}, Kind: kindOAB, VC: make([]uint64, 3), Body: "old",
		Orders: []orderEntry{{ID: msgID{Sender: 1, Seq: 4}, GSeq: 8}}}

	e.mu.Lock()
	e.proposeLocked(0, members, map[transport.ID]bool{}, time.Now())
	id := e.prop.id
	e.mu.Unlock()
	e.handleNet(transport.Message{From: 0, Payload: &vcFlush{ProposalID: id, From: 0, ViewID: 2}})
	e.handleNet(transport.Message{From: 2, Payload: &vcFlush{ProposalID: id, From: 2, ViewID: 2,
		Unstable: []*urbData{request}}})
	e.handleNet(transport.Message{From: 1, Payload: &vcFlush{ProposalID: id, From: 1, ViewID: 1,
		Unstable: []*urbData{old}, Orders: []orderEntry{{ID: request.ID, GSeq: 7}}, SeqNext: 9}})
	if e.pendingSend == nil {
		t.Fatal("no install computed")
	}
	in := e.pendingSend.install
	if len(in.Deliveries) != 1 || in.Deliveries[0] != request {
		t.Fatalf("install deliveries %v, want the current view's request alone", in.Deliveries)
	}
	if want := []orderEntry{{ID: request.ID, GSeq: 0}}; !slices.Equal(in.Orders, want) {
		t.Fatalf("install orders %v, want %v", in.Orders, want)
	}
	if !slices.Equal(in.View.Rejoined, []transport.ID{1}) {
		t.Fatalf("rejoined %v, want [1] (a full transfer)", in.View.Rejoined)
	}
}

// TestStatesForOneCallPerInstall: a view that admits two joiners, one that
// advertised a frontier and one that did not, asks the coordinator's
// StateTransfer once, with both and their frontiers; each joiner is sent its
// own state and installs it before its first view. A joiner whose handler
// has no StateTransfer is admitted all the same, with no install upcall.
func TestStatesForOneCallPerInstall(t *testing.T) {
	members := []transport.ID{0, 1, 2, 3, 4}
	e, sent, rec := unstarted(t, 0, members...)
	front := map[transport.ID]uint64{0: 5, 1: 2}
	e.handleNet(transport.Message{From: 3, Payload: &joinReq{From: 3, Frontier: front}})
	e.handleNet(transport.Message{From: 4, Payload: &joinReq{From: 4}})
	e.tick()
	if e.prop == nil || !reflect.DeepEqual(e.prop.joiners, map[transport.ID]bool{3: true, 4: true}) {
		t.Fatalf("proposal %+v, want one admitting joiners 3 and 4", e.prop)
	}
	id := e.prop.id
	for _, m := range members {
		flush := &vcFlush{ProposalID: id, From: m, ViewID: 1}
		if m >= 3 {
			flush.ViewID = 0 // restarted: no state
		}
		e.handleNet(transport.Message{From: m, Payload: flush})
	}
	e.distributePendingInstall()

	want := map[transport.ID]map[transport.ID]uint64{3: front, 4: nil}
	if !reflect.DeepEqual(rec.statesFor, []map[transport.ID]map[transport.ID]uint64{want}) {
		t.Fatalf("StatesFor calls %v, want one with %v", rec.statesFor, want)
	}
	installs := make(map[transport.ID]*vcInstall)
	for i, p := range sent.payloads {
		if in, ok := p.(*vcInstall); ok {
			installs[sent.to[i]] = in
		}
	}
	for _, m := range members[1:] {
		in := installs[m]
		if in == nil || in.View.ID != id {
			t.Fatalf("install to %d = %+v, want view %d", m, in, id)
		}
		if _, joiner := want[m]; in.HasState != joiner || joiner && in.State != stateFor(id, m, want[m]) {
			t.Fatalf("install to %d: HasState %t, State %v", m, in.HasState, in.State)
		}
	}

	admit := func(id transport.ID, h Handler) {
		t.Helper()
		net := memnet.New(memnet.Config{})
		t.Cleanup(net.Close)
		tr, err := net.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewEndpoint(tr, h, Config{Members: members, Joining: true, HeartbeatInterval: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		j.handleNet(transport.Message{From: 0, Payload: installs[id]})
		j.runUpcalls()
		if !j.InPrimary() || j.CurrentView().ID != installs[id].View.ID {
			t.Fatalf("joiner %d not admitted: view %v", id, j.CurrentView())
		}
	}
	for _, j := range []transport.ID{3, 4} {
		jr := &recorder{}
		admit(j, jr)
		if w := []string{"install " + stateFor(id, j, want[j]), fmt.Sprintf("view %d", id)}; !reflect.DeepEqual(jr.installs, w) {
			t.Fatalf("joiner %d upcalls %v, want %v", j, jr.installs, w)
		}
	}
	bare := &recorder{}
	admit(4, struct{ Handler }{bare})
	if w := []string{fmt.Sprintf("view %d", id)}; !reflect.DeepEqual(bare.installs, w) || bare.state != nil {
		t.Fatalf("joiner without StateTransfer: upcalls %v, state %v; want %v and none", bare.installs, bare.state, w)
	}
}
