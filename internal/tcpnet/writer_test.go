package tcpnet

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// Writer-path coverage: a frame is written by the sending goroutine when its
// peer's connection is idle, and by the peer's background writer otherwise
// (the rest of a partial write, the backlog). These tests hold the frames of
// one sender to its order and its bytes across every hand-over between the
// two, and a peer that stops reading to the queueSize bound.

// rawPeer is a listener standing in for process 1: the test decides when the
// connection it accepts is read. frames yields what arrived, in order.
type rawPeer struct {
	ln     net.Listener
	read   chan struct{} // closed: start reading frames
	frames chan *testPayload
	errs   chan error
	mu     sync.Mutex
	conn   net.Conn
}

// newRawPeer starts transport 0 with a rawPeer as process 1. The peer reads
// the handshake and the first readFirst frames at once, then waits for read
// to be closed.
func newRawPeer(t *testing.T, readFirst int) (*Transport, *rawPeer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rp := &rawPeer{ln: ln, read: make(chan struct{}), frames: make(chan *testPayload, 64), errs: make(chan error, 1)}
	tr, err := New(Config{Self: 0, Addrs: map[transport.ID]string{0: "127.0.0.1:0", 1: ln.Addr().String()}})
	if err != nil {
		_ = ln.Close()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rp.serve(readFirst)
	}()
	t.Cleanup(func() {
		_ = tr.Close()
		rp.close()
		<-done
	})
	return tr, rp
}

func (rp *rawPeer) serve(readFirst int) {
	defer close(rp.frames)
	c, err := rp.ln.Accept()
	if err != nil {
		return
	}
	rp.mu.Lock()
	rp.conn = c
	rp.mu.Unlock()
	br := bufio.NewReader(c)
	fail := func(err error) {
		select {
		case rp.errs <- err:
		default:
		}
	}
	if err := wire.ReadHandshake(br, wire.CodecWire); err != nil {
		fail(err)
		return
	}
	var buf []byte
	for i := 0; ; i++ {
		if i == readFirst {
			<-rp.read
		}
		body, nbuf, err := wire.ReadFrame(br, buf, maxFrame)
		buf = nbuf
		if err != nil {
			return // closed by the test
		}
		_, payload, err := wire.DecodeEnvelope(body)
		if err != nil {
			fail(err)
			return
		}
		m, _ := payload.(*testPayload) // nil: another type
		rp.frames <- m
	}
}

func (rp *rawPeer) close() {
	_ = rp.ln.Close()
	rp.mu.Lock()
	if rp.conn != nil {
		_ = rp.conn.Close()
	}
	rp.mu.Unlock()
	select {
	case <-rp.read:
	default:
		close(rp.read)
	}
	for range rp.frames {
	}
}

// next returns the next frame the peer read.
func (rp *rawPeer) next(t *testing.T) *testPayload {
	t.Helper()
	select {
	case m := <-rp.frames:
		return m
	case err := <-rp.errs:
		t.Fatalf("peer: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a frame")
	}
	return nil
}

// peerState samples p: whether its connection is up with nothing queued,
// half-written or being written, whether a partial frame waits, and the
// backlog's length.
func peerState(p *peer) (idle, partial bool, backlog int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	backlog = len(p.queue) - p.head
	return p.conn != nil && !p.busy && p.rest == nil && backlog == 0, p.rest != nil, backlog
}

// waitIdle waits until p's connection is up and its writer has nothing left.
func waitIdle(t *testing.T, p *peer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if idle, _, _ := peerState(p); idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("peer never became idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// text is frame i's body, size bytes of one letter that changes with i, so a
// frame torn or spliced into another does not decode to the text it should.
func text(cache map[int]string, i, size int) string {
	key := size<<5 | i%26
	s, ok := cache[key]
	if !ok {
		s = strings.Repeat(string(rune('a'+i%26)), size)
		cache[key] = s
	}
	return s
}

// TestWriterOrderAcrossDirectPartialAndBacklog sends frames of mixed sizes
// from one goroutine, some larger than a socket's buffers, while the
// receiver first stops reading and then reads: every frame arrives once, in
// order, with its bytes, although they left by direct writes, by partial
// writes finished by the background writer, and from the backlog.
func TestWriterOrderAcrossDirectPartialAndBacklog(t *testing.T) {
	a, rp := newRawPeer(t, 1)
	const n = 240
	sizes := []int{10, 300, 70 << 10, 1, 4000}
	size := func(i int) int {
		if i%60 == 1 {
			return 6 << 20 // above the 4 MiB send buffer limit
		}
		return sizes[i%len(sizes)]
	}
	cache := map[int]string{}
	payload := func(i int) *testPayload { return &testPayload{N: i, Text: text(cache, i, size(i))} }

	// Every body is built before the checker starts reading the cache.
	for i := range n {
		payload(i)
	}
	got := make(chan error, 1)
	go func() {
		for i := range n {
			var m *testPayload
			select {
			case m = <-rp.frames:
			case err := <-rp.errs:
				got <- err
				return
			case <-time.After(10 * time.Second):
				got <- fmt.Errorf("frame %d never arrived", i)
				return
			}
			if m.N != i || m.Text != text(cache, i, size(i)) {
				got <- fmt.Errorf("frame %d arrived as frame %d of %d bytes", i, m.N, len(m.Text))
				return
			}
		}
		got <- nil
	}()

	// Frame 0 dials; once it is read the connection is up and idle.
	if err := a.Send(1, payload(0)); err != nil {
		t.Fatal(err)
	}
	p, err := a.peerFor(1)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, p)

	var sawDirect, sawPartial, sawBacklog bool
	for i := 1; i < n; i++ {
		if i == n/2 {
			close(rp.read) // the receiver starts reading again
			waitIdle(t, p)
		}
		wasIdle, _, _ := peerState(p)
		if err := a.Send(1, payload(i)); err != nil {
			t.Fatal(err)
		}
		idle, partial, backlog := peerState(p)
		sawDirect = sawDirect || wasIdle && idle
		sawPartial = sawPartial || wasIdle && partial
		sawBacklog = sawBacklog || backlog > 0
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if !sawDirect || !sawPartial || !sawBacklog {
		t.Fatalf("paths taken: direct %t, partial %t, backlog %t; want all three", sawDirect, sawPartial, sawBacklog)
	}
}

// TestStalledPeerBoundsTheBacklog: a peer that accepts and stops reading
// neither blocks Send nor grows the backlog past queueSize; what was kept
// arrives in order and whole once it reads, and the connection carries new
// frames after that.
func TestStalledPeerBoundsTheBacklog(t *testing.T) {
	a, rp := newRawPeer(t, 1)
	body := strings.Repeat("s", 1<<10)
	if err := a.Send(1, &testPayload{N: 0, Text: body}); err != nil {
		t.Fatal(err)
	}
	p, err := a.peerFor(1)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, p)
	if m := rp.next(t); m.N != 0 {
		t.Fatalf("first frame is %d", m.N)
	}

	// Send until the backlog is full, then 100 more: those are dropped.
	const most, drops = 200_000, 100
	sent, dropped, slowest := 1, 0, time.Duration(0)
	for ; dropped < drops; sent++ {
		if sent == most {
			t.Fatalf("backlog never filled in %d sends", most)
		}
		_, _, backlog := peerState(p)
		if backlog == queueSize {
			dropped++
		}
		start := time.Now()
		if err := a.Send(1, &testPayload{N: sent, Text: body}); err != nil {
			t.Fatal(err)
		}
		slowest = max(slowest, time.Since(start))
		if _, _, after := peerState(p); after > queueSize {
			t.Fatalf("backlog holds %d payloads, bound %d", after, queueSize)
		}
	}
	if slowest > time.Second {
		t.Fatalf("a Send to a stalled peer took %v", slowest)
	}

	// Every frame but the dropped ones arrives, in order and whole; the
	// next frame on the connection is a new one.
	close(rp.read)
	for i := 1; i < sent-drops; i++ {
		if m := rp.next(t); m.N != i || m.Text != body {
			t.Fatalf("frame %d arrived as frame %d of %d bytes", i, m.N, len(m.Text))
		}
	}
	if err := a.Send(1, &testPayload{N: -1}); err != nil {
		t.Fatal(err)
	}
	if m := rp.next(t); m.N != -1 {
		t.Fatalf("after the stall frame %d arrived, want the new one (-1)", m.N)
	}
}

// TestCloseLeavesNothingRunning: Close ends every goroutine and closes every
// socket the transports started, also a writer blocked on a peer that does
// not read.
func TestCloseLeavesNothingRunning(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(ents)
	}
	settle := func(cond func() bool) bool {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if cond() {
				return true
			}
		}
		return cond()
	}
	// The runtime's poller opens its descriptors with the first socket.
	if warm, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		_ = warm.Close()
	}
	goroutines0, fds0 := runtime.NumGoroutine(), fds()

	// A stalled peer: the listener accepts, nothing reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
		close(accepted)
	}()
	trs := newGroup(t, 2)
	stalled, err := New(Config{Self: 0, Addrs: map[transport.ID]string{0: "127.0.0.1:0", 1: ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	big := &testPayload{Text: strings.Repeat("b", 8<<20)}
	if err := stalled.Send(1, big); err != nil {
		t.Fatal(err)
	}
	for i := range 50 {
		_ = trs[0].Send(1, &testPayload{N: i})
		_ = trs[1].Send(0, &testPayload{N: i})
		_ = stalled.Send(1, big)
	}
	for range 50 {
		recvOne(t, trs[0])
		recvOne(t, trs[1])
	}
	p, err := stalled.peerFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if !settle(func() bool { _, _, backlog := peerState(p); return backlog > 0 }) {
		t.Fatal("the stalled peer's backlog never filled")
	}

	closed := make(chan struct{})
	go func() {
		_ = stalled.Close()
		for _, tr := range trs {
			_ = tr.Close()
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a writer blocked on a stalled peer")
	}
	_ = ln.Close()
	for c := range accepted {
		_ = c.Close()
	}
	if !settle(func() bool { return runtime.NumGoroutine() <= goroutines0 }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), goroutines0, buf[:runtime.Stack(buf, true)])
	}
	if !settle(func() bool { return fds() <= fds0 }) {
		t.Fatalf("%d file descriptors open after Close, %d before", fds(), fds0)
	}
}
