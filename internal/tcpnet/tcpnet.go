// Package tcpnet implements transport.Transport over TCP for deploying the
// replicated STM on real machines (cmd/alc-node).
//
// Semantics match the simulated transport: sends are asynchronous, delivery
// is FIFO per connection, and messages to unreachable peers are dropped (the
// GCS's retransmission and flush machinery recovers them). Outgoing
// connections are established lazily and re-dialed in the background after
// failures.
//
// Frames use the hand-rolled binary codec from internal/wire: length-prefixed
// frames, one tag byte per message type, reused buffers on both the encode
// and decode path. Every connection opens with an 8-byte handshake naming the
// codec, so a node from the retired gob-framing release (or a stray client on
// the replica port) fails loudly at accept time instead of corrupting the
// stream.
//
// All payload types crossing the wire must be registered: gcs.RegisterWire
// and core.RegisterWire cover the protocol stack, and applications register
// box value types beyond the codec's primitives via core.RegisterValue (they
// ride the wire codec's tag-0x0F app-value adapter).
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
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
	// DialTimeout bounds connection attempts. Default 2s.
	DialTimeout time.Duration
	// RedialInterval spaces reconnection attempts. Default 500ms.
	RedialInterval time.Duration
	// QueueSize bounds per-peer send queues and the inbox. Default 8192.
	QueueSize int
	// MaxFrame caps inbound wire-codec frame bodies (hostile or corrupt
	// length prefixes are rejected before allocation). Default 64 MiB —
	// state-transfer snapshots are the largest legitimate frames.
	MaxFrame int
	// Logf, if set, receives connection-failure diagnostics (handshake
	// mismatches, undecodable peers). Defaults to the standard logger:
	// codec misconfiguration must be loud, not a silent message drop.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RedialInterval <= 0 {
		c.RedialInterval = 500 * time.Millisecond
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 8192
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// Transport is a TCP-backed transport endpoint.
type Transport struct {
	cfg   Config
	ln    net.Listener
	inbox chan transport.Message

	mu    sync.Mutex
	peers map[transport.ID]*peer

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
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	addr, ok := cfg.Addrs[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for self (%d)", cfg.Self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		inbox: make(chan transport.Message, cfg.QueueSize),
		peers: make(map[transport.ID]*peer),
		done:  make(chan struct{}),
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

// Send enqueues a payload for delivery to a peer. Unreachable peers drop
// messages silently (asynchronous-system semantics).
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
	p.enqueue(payload)
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
	p := &peer{
		t:     t,
		id:    id,
		addr:  addr,
		queue: make(chan any, t.cfg.QueueSize),
		stop:  make(chan struct{}),
	}
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
	defer conn.Close()
	go func() {
		<-t.done
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)

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
		body, nbuf, err := wire.ReadFrame(br, buf, t.cfg.MaxFrame)
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

// peer manages the outgoing connection to one process.
type peer struct {
	t     *Transport
	id    transport.ID
	addr  string
	queue chan any

	once sync.Once
	stop chan struct{}
}

func (p *peer) enqueue(payload any) {
	select {
	case p.queue <- payload:
	default:
		// Backpressure: drop the message; the GCS retransmits unstable
		// traffic and treats prolonged loss as a failure.
	}
}

func (p *peer) close() { p.once.Do(func() { close(p.stop) }) }

// frameBuf is a reusable encode buffer, reset in place between frames rather
// than reallocated. reset clamps retained capacity so one oversized frame
// (e.g. a state-transfer snapshot) does not pin its allocation forever.
type frameBuf struct {
	b []byte
}

// frameBufClamp is the largest capacity reset retains across frames.
const frameBufClamp = 256 << 10

func (f *frameBuf) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

func (f *frameBuf) reset() {
	if cap(f.b) > frameBufClamp {
		f.b = nil
		return
	}
	f.b = f.b[:0]
}

// run dials, streams the queue, and re-dials on failure. Each message is
// encoded into a reused buffer and written to the socket as a single Write:
// per-message segments never hit the network individually, and steady-state
// sends allocate nothing for framing.
func (p *peer) run() {
	defer p.t.wg.Done()
	var (
		conn net.Conn
		buf  frameBuf
	)
	disconnect := func() {
		if conn != nil {
			_ = conn.Close()
			conn = nil
			buf.b = nil
		}
	}
	defer disconnect()

	for {
		var payload any
		select {
		case <-p.stop:
			return
		case <-p.t.done:
			return
		case payload = <-p.queue:
		}

		if conn == nil {
			c, err := net.DialTimeout("tcp", p.addr, p.t.cfg.DialTimeout)
			if err != nil {
				// Peer unreachable: drop and pace the next attempt.
				select {
				case <-time.After(p.t.cfg.RedialInterval):
				case <-p.stop:
					return
				case <-p.t.done:
					return
				}
				continue
			}
			if err := wire.WriteHandshake(c, wire.CodecWire); err != nil {
				_ = c.Close()
				continue
			}
			conn = c
		}

		buf.reset()
		out, err := wire.AppendEnvelope(buf.b, int32(p.t.cfg.Self), payload)
		if err != nil {
			// Unencodable payload: drop the message (async-system semantics),
			// keep the connection. This is a programming error — an
			// unregistered type — so say so.
			p.t.cfg.Logf("tcpnet[%d]: wire encode to %d: %v", p.t.cfg.Self, p.id, err)
			continue
		}
		buf.b = out
		if _, err := conn.Write(out); err != nil {
			disconnect()
		}
	}
}
