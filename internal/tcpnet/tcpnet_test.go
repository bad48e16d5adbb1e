package tcpnet

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// testPayload is a struct with a test-tag wire codec, exercised across the
// wire.
type testPayload struct {
	N    int
	Text string
	Tags []string
}

func init() {
	wire.Register(0x72, &testPayload{},
		func(b []byte, v any) ([]byte, error) {
			m := v.(*testPayload)
			b = wire.AppendString(wire.AppendVarint(b, int64(m.N)), m.Text)
			b = wire.AppendUvarint(b, uint64(len(m.Tags)))
			for _, s := range m.Tags {
				b = wire.AppendString(b, s)
			}
			return b, nil
		},
		func(r *wire.Reader) (any, error) {
			m := &testPayload{N: int(r.Varint()), Text: r.String()}
			if n := r.Count(); n > 0 {
				m.Tags = make([]string, n)
				for i := range m.Tags {
					m.Tags[i] = r.String()
				}
			}
			return m, r.Err()
		})
}

// newPair starts two transports on loopback with wired addresses.
func newPair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	return newGroup(t, 2)[0], newGroup2
}

var newGroup2 *Transport // assigned by newGroup for the pair helper

func newGroup(t *testing.T, n int) []*Transport {
	t.Helper()
	return newLoggedGroup(t, n, nil)
}

// newLoggedGroup is newGroup with every transport's diagnostics sent to
// logf (nil: the default logger).
func newLoggedGroup(t *testing.T, n int, logf func(string, ...any)) []*Transport {
	t.Helper()
	// First bind listeners on :0 to learn ports, then rebuild the address
	// map for all transports.
	addrs := make(map[transport.ID]string, n)
	var bootstrap []*Transport
	for i := 0; i < n; i++ {
		tr, err := New(Config{
			Self:  transport.ID(i),
			Addrs: map[transport.ID]string{transport.ID(i): "127.0.0.1:0"},
		})
		if err != nil {
			t.Fatalf("bootstrap transport %d: %v", i, err)
		}
		addrs[transport.ID(i)] = tr.Addr()
		bootstrap = append(bootstrap, tr)
	}
	for _, tr := range bootstrap {
		_ = tr.Close()
	}

	out := make([]*Transport, n)
	for i := 0; i < n; i++ {
		tr, err := New(Config{Self: transport.ID(i), Addrs: addrs, Logf: logf})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		out[i] = tr
	}
	t.Cleanup(func() {
		for _, tr := range out {
			_ = tr.Close()
		}
	})
	if n == 2 {
		newGroup2 = out[1]
	}
	return out
}

func recvOne(t *testing.T, tr *Transport) transport.Message {
	t.Helper()
	select {
	case m := <-tr.Inbox():
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
		return transport.Message{}
	}
}

func TestSendReceiveStruct(t *testing.T) {
	a, b := newPair(t)

	want := &testPayload{N: 7, Text: "hello", Tags: []string{"x", "y"}}
	if err := a.Send(1, want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg := recvOne(t, b)
	if msg.From != 0 {
		t.Fatalf("From = %d, want 0", msg.From)
	}
	got, ok := msg.Payload.(*testPayload)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("payload = %#v, want %#v", msg.Payload, want)
	}
}

func TestSelfSend(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Send(0, &testPayload{N: 1}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg := recvOne(t, a)
	if msg.From != 0 || msg.Payload.(*testPayload).N != 1 {
		t.Fatalf("self message = %+v", msg)
	}
}

func TestFIFOOrder(t *testing.T) {
	a, b := newPair(t)
	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send(1, &testPayload{N: i}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		msg := recvOne(t, b)
		if got := msg.Payload.(*testPayload).N; got != i {
			t.Fatalf("message %d arrived as %d (order violated)", i, got)
		}
	}
}

func TestBidirectional(t *testing.T) {
	a, b := newPair(t)
	if err := a.Send(1, &testPayload{Text: "ping"}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b).Payload.(*testPayload).Text; got != "ping" {
		t.Fatalf("got %q", got)
	}
	if err := b.Send(0, &testPayload{Text: "pong"}); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a).Payload.(*testPayload).Text; got != "pong" {
		t.Fatalf("got %q", got)
	}
}

func TestSendToDeadPeerDoesNotError(t *testing.T) {
	trs := newGroup(t, 2)
	_ = trs[1].Close()
	// Sends to a closed peer are dropped, not errors.
	for i := 0; i < 10; i++ {
		if err := trs[0].Send(1, &testPayload{N: i}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
}

// TestCleanCloseLogsNoDrop: a transport closed while a peer's connection is
// open ends that connection's read loop with net.ErrClosed, which is a
// shutdown, not a dropped connection worth a line.
func TestCleanCloseLogsNoDrop(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	trs := newLoggedGroup(t, 2, logf)
	if err := trs[0].Send(1, &testPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, trs[1]) // transport 1 now reads an open inbound connection
	_ = trs[1].Close()
	_ = trs[0].Close()

	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.Contains(l, "dropping connection") {
			t.Errorf("clean close logged %q", l)
		}
	}
}

func TestSendAfterCloseErrors(t *testing.T) {
	trs := newGroup(t, 2)
	_ = trs[0].Close()
	if err := trs[0].Send(1, &testPayload{}); err != transport.ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestUnknownPeerDropsSilently(t *testing.T) {
	trs := newGroup(t, 2)
	if err := trs[0].Send(99, &testPayload{}); err != nil {
		t.Fatalf("Send to unknown = %v, want nil (drop)", err)
	}
}

// TestGCSOverTCP runs the full group communication stack over real sockets:
// total order and view installation must work exactly as over memnet.
func TestGCSOverTCP(t *testing.T) {
	gcs.RegisterWire()

	trs := newGroup(t, 3)
	ids := []transport.ID{0, 1, 2}

	type rec struct {
		to    chan string
		views chan gcs.View
	}
	recs := make([]*rec, 3)
	eps := make([]*gcs.Endpoint, 3)
	for i, tr := range trs {
		r := &rec{to: make(chan string, 64), views: make(chan gcs.View, 8)}
		recs[i] = r
		ep, err := gcs.NewEndpoint(tr, &chanHandler{r.to, r.views}, gcs.Config{
			Members:           ids,
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectAfter:      500 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("gcs endpoint %d: %v", i, err)
		}
		ep.Start()
		eps[i] = ep
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()

	for i, ep := range eps {
		for j := 0; j < 5; j++ {
			if err := ep.OABroadcast(fmt.Sprintf("n%d-%d", i, j)); err != nil {
				t.Fatalf("OABroadcast: %v", err)
			}
		}
	}

	var sequences [3][]string
	for i, r := range recs {
		for len(sequences[i]) < 15 {
			select {
			case s := <-r.to:
				sequences[i] = append(sequences[i], s)
			case <-time.After(10 * time.Second):
				t.Fatalf("node %d: TO stalled at %d/15", i, len(sequences[i]))
			}
		}
	}
	if !reflect.DeepEqual(sequences[0], sequences[1]) || !reflect.DeepEqual(sequences[1], sequences[2]) {
		t.Fatalf("total order differs over TCP:\n%v\n%v\n%v", sequences[0], sequences[1], sequences[2])
	}
}

type chanHandler struct {
	to    chan string
	views chan gcs.View
}

func (h *chanHandler) OnOptDeliver(from transport.ID, body any) {}
func (h *chanHandler) OnTODeliver(from transport.ID, body any) {
	h.to <- body.(string)
}
func (h *chanHandler) OnURDeliver(from transport.ID, body any) {}
func (h *chanHandler) OnViewChange(v gcs.View) {
	select {
	case h.views <- v:
	default:
	}
}
func (h *chanHandler) OnEjected() {}

// onInline reports whether p's queue is back on its inline slots, holding no
// array of its own. Caller holds p.mu.
func onInline(p *peer) bool {
	return cap(p.queue) == len(p.inline) && &p.queue[:1][0] == &p.inline[0]
}

// TestPeerQueueFIFOBoundAndRelease drives one peer's send queue without its
// sender: payloads leave in the order they came, a send beyond queueSize is
// dropped, a burst that fits the inline slots (after the sender took some)
// stays there, and a drained queue releases the array a longer burst spilled
// into.
func TestPeerQueueFIFOBoundAndRelease(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, take int
	}{
		{"spill and drain", 100, 100},
		{"drop past the bound", queueSize + 10, queueSize},
		{"slide down inline", 8, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &peer{t: &Transport{}, wake: make(chan struct{}, 1)}
			p.queue = p.inline[:0]
			for i := range tc.in {
				p.enqueue(i)
			}
			for i := range tc.take {
				if got, ok := p.next(); !ok || got != i {
					t.Fatalf("payload %d: got %v, %t", i, got, ok)
				}
			}
			if tc.name == "slide down inline" {
				for i := range tc.take {
					p.enqueue(tc.in + i)
				}
				if !onInline(p) {
					t.Fatalf("%d payloads spilled out of %d inline slots", tc.in, len(p.inline))
				}
				for i := tc.take; i < tc.in+tc.take; i++ {
					if got, _ := p.next(); got != i {
						t.Fatalf("payload %d after the slide: got %v", i, got)
					}
				}
			}
			if n := len(p.queue) - p.head; n != 0 {
				t.Fatalf("%d payloads left queued", n)
			}
			if !onInline(p) {
				t.Fatalf("a drained queue holds an array of %d slots", cap(p.queue))
			}
		})
	}
}
