package gcs

import (
	"fmt"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/transport"
)

// groupOfTwo returns process 0's endpoints on two channels muxed over one
// memnet transport, in a view of three, not started (the test plays the
// dispatchers), with the network and process 1's raw inbox.
func groupOfTwo(t *testing.T) ([2]*Endpoint, *memnet.Network, <-chan transport.Message) {
	t.Helper()
	net := memnet.New(memnet.Config{})
	t.Cleanup(net.Close)
	var trs [3]*memnet.Endpoint
	for i := range trs {
		var err error
		if trs[i], err = net.Endpoint(transport.ID(i)); err != nil {
			t.Fatal(err)
		}
	}
	mux := transport.NewMux(trs[0], 2)
	t.Cleanup(mux.Close)
	var eps [2]*Endpoint
	for i := range eps {
		var err error
		eps[i], err = NewEndpoint(mux.Sub(i), &recorder{}, Config{Members: []transport.ID{0, 1, 2}, HeartbeatInterval: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
	}
	return eps, net, trs[1].Inbox()
}

// broadcastGroup submits one part per endpoint and lets the first endpoint's
// dispatcher try to complete the group.
func broadcastGroup(t *testing.T, eps [2]*Endpoint, tag string) *Group {
	t.Helper()
	g := NewGroup(eps[0], eps[1])
	for i, e := range eps {
		if err := e.URBroadcastGroup(g, fmt.Sprintf("%s%d", tag, i)); err != nil {
			t.Fatal(err)
		}
	}
	eps[0].drainOutbox()
	return g
}

// TestGroupPartRetransmitsWithItsSiblings: a group whose first frame a
// partition dropped is retransmitted as one frame carrying every part, by
// whichever part's endpoint retransmits first. Per-part retransmissions can be
// split by a heal between them and the origin's crash after, leaving a peer
// with one part of a cross-channel broadcast and never the other.
func TestGroupPartRetransmitsWithItsSiblings(t *testing.T) {
	eps, net, peer := groupOfTwo(t)
	net.Partition([]transport.ID{0}, []transport.ID{1, 2})
	if g := broadcastGroup(t, eps, "p"); !g.finished() {
		t.Fatal("group did not complete")
	}
	net.Heal()

	e := eps[1]
	e.mu.Lock()
	e.retransmitLocked(time.Now().Add(e.cfg.RetransmitAfter))
	e.mu.Unlock()
	select {
	case m := <-peer:
		env, ok := m.Payload.(*transport.GroupEnvelope)
		if !ok || len(env.Envs) != 2 {
			t.Fatalf("retransmission is %#v, want one frame with both parts", m.Payload)
		}
		for i, se := range env.Envs {
			if d, ok := se.Body.(*urbData); !ok || int(se.Shard) != i || d.Body != fmt.Sprintf("p%d", i) {
				t.Fatalf("part %d of the retransmission: shard %d, %#v", i, se.Shard, se.Body)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no retransmission reached the peer")
	}
}

// TestGroupWaitsBehindUnheardBroadcast: a group does not leave while an
// earlier broadcast on one of its channels has gone a tick without any other
// member holding it. That broadcast may be lost for good (the origin crashes
// before retransmitting it), and the part sent behind it would then wait
// forever at every receiver while its sibling is delivered.
func TestGroupWaitsBehindUnheardBroadcast(t *testing.T) {
	eps, net, _ := groupOfTwo(t)
	net.Partition([]transport.ID{0}, []transport.ID{1, 2})
	broadcastGroup(t, eps, "lost")
	net.Heal()
	for _, e := range eps {
		e.vs.pending[e.vs.self][0].sentAt = time.Now().Add(-2 * e.cfg.Tick)
	}
	g := broadcastGroup(t, eps, "next")
	if g.finished() {
		t.Fatal("group sent behind an unheard broadcast")
	}

	for _, e := range eps {
		e.handleNet(transport.Message{From: 1, Payload: &urbAck{View: 1, From: 1, Held: []uint64{1, 0, 0}}})
	}
	eps[0].drainOutbox()
	if !g.finished() {
		t.Fatal("group still held once a peer holds the earlier broadcasts")
	}
}
