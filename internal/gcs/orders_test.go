package gcs

import (
	"slices"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// TestOrdersRideUpcallBroadcast: a peer's OAB request Opt-delivered at the
// sequencer, answered from that upcall with a URB broadcast (as the lease
// manager answers a request for a lease it holds with a release), gives one
// frame per peer, carrying the release and the request's slot; no order-only
// frame follows. A receiver of that frame TO-delivers the request before it
// UR-delivers the release, as it did when the slot left in a frame of its own
// ahead of the release.
func TestOrdersRideUpcallBroadcast(t *testing.T) {
	seq, sent, rec := unstarted(t, 0, 0, 1, 2)
	rec.onOpt = func(_ transport.ID, body any) {
		if body == "request" {
			if err := seq.URBroadcast("release"); err != nil {
				t.Error(err)
			}
		}
	}
	request := &urbData{View: 1, ID: msgID{Sender: 1, Seq: 1}, Kind: kindOAB, VC: []uint64{0, 0, 0}, Body: "request"}
	seq.handleNet(transport.Message{From: 1, Payload: request})
	if got := dataTo(sent, 2); len(got) != 0 {
		t.Fatalf("the sequencer sent %d data frames on receipt, before the round's upcalls", len(got))
	}
	// The rest of the dispatcher round, as run takes it.
	seq.drainOutbox()
	seq.flushAcks()
	seq.runUpcalls()
	seq.flushOrders()

	want := []orderEntry{{ID: request.ID, GSeq: 0}}
	var frame *urbData
	for _, peer := range []transport.ID{1, 2} {
		got := dataTo(sent, peer)
		if len(got) != 1 || got[0].Kind != kindURB || got[0].Body != "release" || !slices.Equal(got[0].Orders, want) {
			t.Fatalf("peer %d was sent %d data frames (%+v), want one carrying the release and the slot %v", peer, len(got), got, want)
		}
		frame = got[0]
	}
	if len(seq.vs.seqQueue) != 0 {
		t.Fatalf("%d slots left behind", len(seq.vs.seqQueue))
	}

	recv, _, rrec := unstarted(t, 2, 0, 1, 2)
	var toBefore []string
	rrec.onURD = func(_ transport.ID, body any) {
		if body == "release" {
			rrec.mu.Lock()
			toBefore = slices.Clone(rrec.to)
			rrec.mu.Unlock()
		}
	}
	recv.handleNet(transport.Message{From: 1, Payload: request})
	recv.handleNet(transport.Message{From: 0, Payload: frame})
	recv.runUpcalls()
	if !slices.Equal(rrec.urSeq(), []string{"release"}) {
		t.Fatalf("receiver UR-delivered %v, want the release", rrec.urSeq())
	}
	if !slices.Equal(toBefore, []string{"request"}) {
		t.Fatalf("TO-delivered before the release: %v, want [request]", toBefore)
	}
}

// TestPiggybackTakesPacedSlots: with OrderInterval set, a frame carries only
// the slots the token bucket holds; the rest stay queued, wake the
// dispatcher, and leave in an order-only frame once tokens accrue, not
// before.
func TestPiggybackTakesPacedSlots(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	e.cfg.OrderInterval = time.Hour // no token accrues during the test
	for i := uint64(1); i <= 5; i++ {
		e.handleNet(transport.Message{From: 1, Payload: &urbData{View: 1, ID: msgID{Sender: 1, Seq: i},
			Kind: kindOAB, VC: []uint64{0, i - 1, 0}, Body: int(i)}})
	}
	e.runUpcalls()
	e.mu.Lock()
	e.vs.seqTokens, e.vs.seqRefill = 2, time.Now()
	e.mu.Unlock()

	if err := e.URBroadcast("x"); err != nil {
		t.Fatal(err)
	}
	gseqs := func(d *urbData) []uint64 {
		var g []uint64
		for _, o := range d.Orders {
			g = append(g, o.GSeq)
		}
		return g
	}
	got := dataTo(sent, 2)
	if len(got) != 1 || !slices.Equal(gseqs(got[0]), []uint64{0, 1}) {
		t.Fatalf("the broadcast's frame carries slots %v, want the 2 the bucket holds", gseqs(got[0]))
	}
	if len(e.vs.seqQueue) != 3 || len(e.notify) != 1 {
		t.Fatalf("%d slots queued and a wake-up %t, want 3 and true", len(e.vs.seqQueue), len(e.notify) != 0)
	}
	e.flushOrders()
	if got := dataTo(sent, 2); len(got) != 1 {
		t.Fatalf("an empty bucket sent %d more frames", len(got)-1)
	}
	e.mu.Lock()
	e.vs.seqTokens = 4
	e.mu.Unlock()
	e.flushOrders()
	got = dataTo(sent, 2)
	if len(got) != 2 || got[1].Kind != kindOrder || got[1].Body != nil || !slices.Equal(gseqs(got[1]), []uint64{2, 3, 4}) {
		t.Fatalf("after a refill sent %d frames, the last %+v; want an order-only frame with slots [2 3 4]", len(got), got[len(got)-1])
	}
}

// TestInstallHonoursOrdersOnDataFrames: an order slot that rode a URB frame
// of the old sequencer, reported in a flush, is kept by the install; only
// payloads no frame ordered get new slots, after it.
func TestInstallHonoursOrdersOnDataFrames(t *testing.T) {
	e, _, _ := unstarted(t, 1, 0, 1, 2)
	request := &urbData{View: 1, ID: msgID{Sender: 2, Seq: 1}, Kind: kindOAB, VC: []uint64{0, 0, 0}, Body: "request"}
	unordered := &urbData{View: 1, ID: msgID{Sender: 2, Seq: 2}, Kind: kindOAB, VC: []uint64{0, 0, 1}, Body: "unordered"}
	release := &urbData{View: 1, ID: msgID{Sender: 0, Seq: 1}, Kind: kindURB, VC: []uint64{0, 0, 1}, Body: "release",
		Orders: []orderEntry{{ID: request.ID, GSeq: 5}}}

	e.mu.Lock()
	e.proposeLocked(0, []transport.ID{1, 2}, map[transport.ID]bool{}, time.Now())
	id := e.prop.id
	e.mu.Unlock()
	e.handleNet(transport.Message{From: 1, Payload: &vcFlush{ProposalID: id, From: 1, ViewID: 1}})
	e.handleNet(transport.Message{From: 2, Payload: &vcFlush{ProposalID: id, From: 2, ViewID: 1,
		Unstable: []*urbData{request, unordered, release}}})
	if e.pendingSend == nil {
		t.Fatal("no install computed")
	}
	want := []orderEntry{{ID: request.ID, GSeq: 5}, {ID: unordered.ID, GSeq: 6}}
	if got := e.pendingSend.install.Orders; !slices.Equal(got, want) {
		t.Fatalf("install orders %v, want %v", got, want)
	}
}
