package tcpnet

import (
	"net"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// Failure-path coverage: the transport must shrug off malformed inbound
// streams (a framing error kills only that connection) and transparently
// re-dial peers that crash and come back on the same address. These paths are
// what the GCS leans on during real deployments — a flaky peer must degrade
// into message loss, never into a wedged or crashed transport.

// TestGarbageOnWireDropsConnection writes bytes that are not even a
// handshake straight at the listener: the connection must be refused loudly
// (counted as a handshake reject) without disturbing healthy connections.
func TestGarbageOnWireDropsConnection(t *testing.T) {
	trs := newGroup(t, 2)

	raw, err := net.Dial("tcp", trs[1].Addr())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("definitely not a wire stream\x00\xff\xfe")); err != nil {
		t.Fatalf("raw write: %v", err)
	}

	// The reject is observable, and healthy traffic still flows.
	deadline := time.Now().Add(5 * time.Second)
	for trs[1].HandshakeRejects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("garbage connection was never rejected at handshake")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := trs[0].Send(1, &testPayload{N: 42}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := recvOne(t, trs[1]).Payload.(*testPayload).N; got != 42 {
		t.Fatalf("payload N = %d, want 42", got)
	}
}

// TestGarbageAfterHandshakeDropsConnection opens a valid handshake and then
// streams garbage frames: the read loop must drop only that connection.
func TestGarbageAfterHandshakeDropsConnection(t *testing.T) {
	trs := newGroup(t, 2)

	raw, err := net.Dial("tcp", trs[1].Addr())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	if err := wire.WriteHandshake(raw, wire.CodecWire); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	// A frame whose declared length is hostile (far above maxFrame) must be
	// rejected before allocation; the conn dies, the transport survives.
	if _, err := raw.Write([]byte{0xff, 0xff, 0xff, 0xff, wire.Version}); err != nil {
		t.Fatalf("raw write: %v", err)
	}

	select {
	case m := <-trs[1].Inbox():
		t.Fatalf("garbage frame surfaced as %#v", m.Payload)
	case <-time.After(100 * time.Millisecond):
	}
	if err := trs[0].Send(1, &testPayload{N: 42}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := recvOne(t, trs[1]).Payload.(*testPayload).N; got != 42 {
		t.Fatalf("payload N = %d, want 42", got)
	}
}

// TestPartialFrameMidWire cuts a connection in the middle of a valid binary
// frame: the receiver must discard the truncated message and survive.
func TestPartialFrameMidWire(t *testing.T) {
	trs := newGroup(t, 2)

	// Encode one valid envelope to learn its byte form, then send only a
	// prefix — a syntactically plausible but truncated frame.
	frame, err := wire.AppendEnvelope(wire.AppendHandshake(nil, wire.CodecWire),
		0, "a payload that will be cut off mid-frame")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(frame) < 16 {
		t.Fatalf("frame unexpectedly small: %d bytes", len(frame))
	}

	raw, err := net.Dial("tcp", trs[1].Addr())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	if _, err := raw.Write(frame[:len(frame)-3]); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	_ = raw.Close() // cut mid-frame

	// The truncated message must not surface, and the transport must keep
	// delivering on other connections.
	select {
	case m := <-trs[1].Inbox():
		t.Fatalf("truncated frame surfaced as %#v", m.Payload)
	case <-time.After(100 * time.Millisecond):
	}
	if err := trs[0].Send(1, &testPayload{N: 9}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := recvOne(t, trs[1]).Payload.(*testPayload).N; got != 9 {
		t.Fatalf("payload N = %d, want 9", got)
	}
}

// TestLegacyGobHandshakeRefused simulates a node from the retired gob-framing
// release dialing in: its handshake names codec 'G', which this transport no
// longer speaks. The link must be refused at handshake — an observable reject
// — and never corrupt into a delivered message.
func TestLegacyGobHandshakeRefused(t *testing.T) {
	trs := newGroup(t, 2)

	raw, err := net.Dial("tcp", trs[1].Addr())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	if err := wire.WriteHandshake(raw, wire.CodecGob); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for trs[1].HandshakeRejects() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("legacy gob handshake was never rejected")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Silent corruption check: nothing may surface, and healthy wire links
	// must be unaffected.
	select {
	case m := <-trs[1].Inbox():
		t.Fatalf("legacy gob connection delivered %#v", m.Payload)
	case <-time.After(100 * time.Millisecond):
	}
	if err := trs[0].Send(1, &testPayload{N: 42}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got := recvOne(t, trs[1]).Payload.(*testPayload).N; got != 42 {
		t.Fatalf("payload N = %d, want 42", got)
	}
}

// TestPeerReconnectAfterRestart crashes the receiving transport and brings a
// new incarnation up on the same address: the sender's peer loop must
// re-dial and deliver to the new process without intervention. Messages sent
// while the peer is down are dropped (asynchronous-system semantics), so the
// test only asserts that SOME later message arrives.
func TestPeerReconnectAfterRestart(t *testing.T) {
	trs := newGroup(t, 2)
	addr := trs[1].Addr()

	// Establish the connection, then crash the peer.
	if err := trs[0].Send(1, &testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, trs[1]).Payload.(*testPayload).N; got != 1 {
		t.Fatalf("warm-up payload N = %d, want 1", got)
	}
	_ = trs[1].Close()

	// Restart on the same address. The listen can race the dying listener's
	// teardown, so retry briefly.
	var reborn *Transport
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		reborn, err = New(Config{
			Self:           1,
			Addrs:          map[transport.ID]string{0: trs[0].Addr(), 1: addr},
			RedialInterval: 20 * time.Millisecond,
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer reborn.Close()

	// Keep sending until the redial lands; the first sends race the dead
	// connection's discovery and are legitimately lost.
	got := make(chan int, 1)
	go func() {
		m := recvOne(t, reborn)
		got <- m.Payload.(*testPayload).N
	}()
	deadline = time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := trs[0].Send(1, &testPayload{N: 100 + i}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		select {
		case n := <-got:
			if n < 100 {
				t.Fatalf("reborn peer received stale payload %d", n)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("sender never reconnected to the reborn peer")
		}
	}
}
