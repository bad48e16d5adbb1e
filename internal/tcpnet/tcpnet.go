// Package tcpnet implements transport.Transport over TCP for deploying the
// replicated STM on real machines (cmd/alc-node).
//
// Semantics match the simulated transport: sends are asynchronous, delivery
// is FIFO per connection, and messages to unreachable peers are dropped (the
// GCS's retransmission and flush machinery recovers them). Outgoing
// connections are established lazily and re-dialed in the background after
// failures.
//
// Each peer has one writer at a time. A Send that finds the peer's
// connection up and idle encodes the frame and writes it itself, with a
// write that never waits for room in the socket, so the frame crosses no
// goroutine on its way out. Anything that cannot leave that way — the rest
// of a partial write, frames sent while a write runs or while the connection
// is down — waits in the peer's bounded backlog for its background writer,
// which sends it in order and does the dialing. Nothing is delayed or
// batched: every frame is one write, as soon as the socket is free.
//
// Frames use the hand-rolled binary codec from internal/wire: length-prefixed
// frames, one tag byte per message type, reused buffers on both the encode
// and decode path. Every connection opens with an 8-byte handshake naming the
// codec, so a node from the retired gob-framing release (or a stray client on
// the replica port) fails loudly at accept time instead of corrupting the
// stream.
//
// All payload types crossing the wire must be registered: gcs.RegisterWire
// and core.RegisterWire cover the protocol stack, and a box value type beyond
// the codec's primitives carries its own codec, registered with
// wire.Register in its package's init (internal/sortedset and
// internal/vacation do so).
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// Config describes the process and its peers.
type Config struct {
	// Self is this process's ID; Addrs[Self] is the address to listen on.
	Self transport.ID
	// Addrs maps every process (including Self) to host:port.
	Addrs map[transport.ID]string
	// RedialInterval spaces reconnection attempts. Default 500ms.
	RedialInterval time.Duration
	// Logf, if set, receives connection-failure diagnostics (handshake
	// mismatches, undecodable peers). Defaults to the standard logger:
	// codec misconfiguration must be loud, not a silent message drop.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.RedialInterval <= 0 {
		c.RedialInterval = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// queueSize bounds each peer's backlog and the inbox. A backlog is a bound,
// not an allocation: it holds only what is waiting, a burst longer than a
// few messages gets an array allocated on demand and released when the
// backlog drains, and a send beyond the bound is dropped. The inbox is a
// channel of this capacity.
const queueSize = 8192

// dialTimeout bounds one connection attempt.
const dialTimeout = 2 * time.Second

// maxFrame caps inbound wire-codec frame bodies (hostile or corrupt length
// prefixes are rejected before allocation): 64 MiB, because state-transfer
// snapshots are the largest legitimate frames.
const maxFrame = wire.DefaultMaxFrame

// Transport is a TCP-backed transport endpoint.
type Transport struct {
	cfg   Config
	ln    net.Listener
	inbox chan transport.Message

	mu      sync.Mutex
	peers   map[transport.ID]*peer
	inbound map[net.Conn]struct{} // accepted connections, closed by Close

	// handshakeRejects counts inbound connections refused for a codec or
	// version mismatch — the observable "failed loudly" signal.
	rejectMu         sync.Mutex
	handshakeRejects int

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// New starts listening and returns the transport.
func New(cfg Config) (*Transport, error) {
	cfg.fillDefaults()
	addr, ok := cfg.Addrs[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for self (%d)", cfg.Self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	t := &Transport{
		cfg:     cfg,
		ln:      ln,
		inbox:   make(chan transport.Message, queueSize),
		peers:   make(map[transport.ID]*peer),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual listen address (useful with ":0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Self returns the local process ID.
func (t *Transport) Self() transport.ID { return t.cfg.Self }

// Inbox returns the incoming message stream.
func (t *Transport) Inbox() <-chan transport.Message { return t.inbox }

// Done is closed when the transport stops.
func (t *Transport) Done() <-chan struct{} { return t.done }

// HandshakeRejects reports how many inbound connections were refused for a
// codec or version mismatch. A nonzero value on a freshly deployed cluster
// means the nodes disagree on -codec.
func (t *Transport) HandshakeRejects() int {
	t.rejectMu.Lock()
	defer t.rejectMu.Unlock()
	return t.handshakeRejects
}

// Send hands a payload to a peer's connection: written by the caller when
// the connection is idle, queued for the peer's background writer
// otherwise. It never waits for the peer. Unreachable peers drop messages
// silently (asynchronous-system semantics).
func (t *Transport) Send(to transport.ID, payload any) error {
	select {
	case <-t.done:
		return transport.ErrClosed
	default:
	}
	if to == t.cfg.Self {
		select {
		case t.inbox <- transport.Message{From: t.cfg.Self, Payload: payload}:
		case <-t.done:
		}
		return nil
	}
	p, err := t.peerFor(to)
	if err != nil {
		return nil //nolint:nilerr // unknown peer behaves like a dead one
	}
	p.send(payload)
	return nil
}

// Close shuts the transport down.
func (t *Transport) Close() error {
	t.stopOnce.Do(func() {
		close(t.done)
		_ = t.ln.Close()
		t.mu.Lock()
		for _, p := range t.peers {
			p.close()
		}
		for c := range t.inbound {
			_ = c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
	return nil
}

func (t *Transport) peerFor(id transport.ID) (*peer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.peers[id]; ok {
		return p, nil
	}
	addr, ok := t.cfg.Addrs[id]
	if !ok {
		return nil, fmt.Errorf("tcpnet: unknown peer %d", id)
	}
	select {
	case <-t.done:
		// Close has stopped the peers it found; start no new one.
		return nil, transport.ErrClosed
	default:
	}
	p := newPeer(t, id, addr)
	t.peers[id] = p
	t.wg.Add(1)
	go p.run()
	return p, nil
}

// acceptLoop receives inbound connections and decodes their frames.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	select {
	case <-t.done:
		t.mu.Unlock()
		_ = conn.Close()
		return
	default:
	}
	t.inbound[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)

	// Every connection opens with the codec handshake. A mismatch is a
	// deployment error (a node from the retired gob-framing release, or a
	// stray client on the replica port): refuse the connection and say so
	// loudly.
	if err := wire.ReadHandshake(br, wire.CodecWire); err != nil {
		t.rejectMu.Lock()
		t.handshakeRejects++
		t.rejectMu.Unlock()
		t.cfg.Logf("tcpnet[%d]: refusing connection from %s: %v", t.cfg.Self, conn.RemoteAddr(), err)
		return
	}
	t.readLoopWire(br)
}

// readLoopWire decodes binary-codec frames into the inbox. The frame buffer
// is reused across messages; payloads are fully decoded (deep-copied) before
// the buffer is recycled.
func (t *Transport) readLoopWire(br *bufio.Reader) {
	var buf []byte
	for {
		body, nbuf, err := wire.ReadFrame(br, buf, maxFrame)
		buf = nbuf
		if err != nil {
			// Clean close (EOF) and shutdown races are normal; anything else
			// (oversize frame, truncation mid-frame) is worth a line.
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				t.cfg.Logf("tcpnet[%d]: dropping connection: %v", t.cfg.Self, err)
			}
			return
		}
		from, payload, err := wire.DecodeEnvelope(body)
		if err != nil {
			t.cfg.Logf("tcpnet[%d]: dropping connection: undecodable frame: %v", t.cfg.Self, err)
			return
		}
		// One oversized frame (a state transfer) must not pin its buffer.
		if cap(buf) > frameBufClamp {
			buf = nil
		}
		select {
		case t.inbox <- transport.Message{From: transport.ID(from), Payload: payload}:
		case <-t.done:
			return
		}
	}
}

// readBufSize is the read buffer of each inbound connection. Frames larger
// than it are read through it, not into it.
const readBufSize = 16 << 10

// peer manages the outgoing connection to one process. It has one writer at
// a time. A Send that finds the connection up and nothing waiting is that
// writer: it encodes its frame into the peer's buffer and writes it without
// waiting for room, so the frame crosses no goroutine. Whatever cannot go
// out that way goes to the background writer (run), which sends it in order:
// the unwritten rest of a partial write, frames that arrive while a write is
// running or while the connection is down, and the dialing itself.
type peer struct {
	t    *Transport
	id   transport.ID
	addr string

	mu     sync.Mutex
	conn   net.Conn        // nil while down; run dials it
	raw    syscall.RawConn // conn's, for the non-blocking write
	busy   bool            // a writer holds conn, buf and rest
	closed bool

	// buf is the encode buffer, reused from frame to frame. rest is the
	// unwritten tail of the last frame, still in buf: it is handed to run,
	// not copied, and goes out before anything else.
	buf  []byte
	rest []byte

	// queue[head:] is the backlog: payloads waiting for run, oldest first,
	// at most queueSize of them. A few fit in inline, so the common short
	// burst allocates nothing; a longer one spills into an array allocated
	// for it, which the queue drops when it drains. wake (one slot) tells
	// run that there is work.
	queue  []any
	head   int
	inline [8]any
	wake   chan struct{}

	// out, n and werr carry one non-blocking write through writeFn, the
	// method value of writeSome, made once so that a write allocates no
	// closure. The writer holding busy owns them.
	out     []byte
	n       int
	werr    error
	writeFn func(fd uintptr) bool

	stop chan struct{}
}

func newPeer(t *Transport, id transport.ID, addr string) *peer {
	p := &peer{t: t, id: id, addr: addr, wake: make(chan struct{}, 1), stop: make(chan struct{})}
	p.queue = p.inline[:0]
	p.writeFn = p.writeSome
	return p
}

// send writes payload's frame at once if the connection is up and nothing
// is waiting or being written; otherwise it queues the payload for run. It
// never waits for the peer.
func (p *peer) send(payload any) {
	p.mu.Lock()
	if p.conn == nil || p.busy || p.rest != nil || p.head < len(p.queue) {
		p.enqueue(payload)
		p.mu.Unlock()
		p.signal()
		return
	}
	p.busy = true
	raw := p.raw
	p.mu.Unlock()

	out := p.encode(payload)
	var n int
	var err error
	if len(out) > 0 {
		n, err = p.writeNow(raw, out)
	}
	p.mu.Lock()
	p.busy = false
	if err != nil {
		p.disconnectLocked()
	} else if n < len(out) {
		p.rest = out[n:]
	}
	work := p.rest != nil || p.head < len(p.queue)
	p.mu.Unlock()
	if work {
		p.signal()
	}
}

// enqueue appends payload to the backlog, or drops it past queueSize: the
// GCS retransmits unstable traffic and treats prolonged loss as a failure.
// Caller holds p.mu.
func (p *peer) enqueue(payload any) {
	n := len(p.queue) - p.head
	if n >= queueSize {
		return
	}
	if len(p.queue) == cap(p.queue) && p.head > 0 {
		// No room at the end but some at the front: slide down.
		copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, payload)
}

// dequeue takes the oldest backlog payload; false if there is none. Caller
// holds p.mu.
func (p *peer) dequeue() (any, bool) {
	if p.head == len(p.queue) {
		return nil, false
	}
	payload := p.queue[p.head]
	p.queue[p.head] = nil
	if p.head++; p.head == len(p.queue) {
		p.queue, p.head = p.inline[:0], 0
	}
	return payload, true
}

func (p *peer) signal() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// encode frames payload into buf and returns the frame; nil if payload has
// no codec. buf keeps at most frameBufClamp bytes across frames, so one
// state-transfer snapshot does not pin its allocation. Only the writer
// holding busy calls it.
func (p *peer) encode(payload any) []byte {
	if cap(p.buf) > frameBufClamp {
		p.buf = nil
	}
	out, err := wire.AppendEnvelope(p.buf[:0], int32(p.t.cfg.Self), payload)
	if err != nil {
		// An unregistered type is a programming error: say so, drop the
		// message (asynchronous-system semantics), keep the connection.
		p.t.cfg.Logf("tcpnet[%d]: wire encode to %d: %v", p.t.cfg.Self, p.id, err)
		return nil
	}
	p.buf = out
	return out
}

// writeNow writes what of out the socket takes right now, without waiting
// for room: a full socket buffer writes 0 bytes, not an error.
func (p *peer) writeNow(raw syscall.RawConn, out []byte) (int, error) {
	p.out = out
	err := raw.Write(p.writeFn)
	n, werr := p.n, p.werr
	p.out, p.werr = nil, nil
	if err != nil {
		return 0, err
	}
	return n, werr
}

// writeSome is writeNow's one attempt on the descriptor. Returning true
// tells the runtime not to wait for the socket to become writable.
func (p *peer) writeSome(fd uintptr) bool {
	p.n, p.werr = writeFD(fd, p.out)
	return true
}

// disconnectLocked closes a broken connection; the partial frame in rest
// dies with it. Caller holds p.mu and the writer's role is free.
func (p *peer) disconnectLocked() {
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.conn, p.raw, p.rest = nil, nil, nil
}

// close stops run and closes the connection, which ends a write blocked on a
// peer that does not read.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.mu.Unlock()
	close(p.stop)
}

// run is the background writer. It dials, drains what send left it in
// order, and redials on failure.
func (p *peer) run() {
	defer p.t.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case <-p.wake:
		}
		if !p.drain() {
			return
		}
	}
}

// drain writes the rest of a partial frame and then the backlog, one frame
// per write, dialing first if the connection is down. It returns when there
// is nothing left or a direct writer holds the socket (that writer signals
// if it leaves work behind); false once the peer stops.
func (p *peer) drain() bool {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return false
		}
		if p.busy || (p.rest == nil && p.head == len(p.queue)) {
			p.mu.Unlock()
			return true
		}
		if p.conn == nil {
			p.mu.Unlock()
			if !p.dial() {
				return false
			}
			continue
		}
		p.busy = true
		conn, out := p.conn, p.rest
		p.rest = nil
		var payload any
		if out == nil {
			payload, _ = p.dequeue()
		}
		p.mu.Unlock()

		if out == nil {
			out = p.encode(payload)
		}
		var err error
		if len(out) > 0 {
			_, err = conn.Write(out)
		}
		p.mu.Lock()
		p.busy = false
		if err != nil {
			p.disconnectLocked()
		}
		p.mu.Unlock()
	}
}

// dial connects to the peer and writes the handshake. A failed attempt
// drops the oldest waiting payload and paces the next one by
// RedialInterval. It returns false once the peer stops.
func (p *peer) dial() bool {
	c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	var raw syscall.RawConn
	if err == nil {
		if err = wire.WriteHandshake(c, wire.CodecWire); err == nil {
			raw, err = c.(syscall.Conn).SyscallConn()
		}
		if err != nil {
			_ = c.Close()
		}
	}
	if err != nil {
		p.mu.Lock()
		p.dequeue()
		p.mu.Unlock()
		select {
		case <-time.After(p.t.cfg.RedialInterval):
			return true
		case <-p.stop:
			return false
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		_ = c.Close()
		return false
	}
	p.conn, p.raw = c, raw
	return true
}

// frameBufClamp is the largest encode or read buffer kept across frames.
const frameBufClamp = 256 << 10
