package clientsrv

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/wire"
)

// ErrOverloaded reports admission-control shedding: the server did NOT
// execute the request and the caller should retry after backing off. It is
// the client-side face of wire.StatusOverloaded.
var ErrOverloaded = errors.New("clientsrv: server overloaded (retry)")

// ClientConfig configures a connection pool to one server.
type ClientConfig struct {
	// Addr is the server's client port.
	Addr string
	// Conns is the pool size. Requests round-robin across connections and
	// pipeline freely within one. Default 4.
	Conns int
	// DialTimeout bounds connection attempts. Default 2s.
	DialTimeout time.Duration
}

// Client is a pooled, pipelined client-protocol client. Methods are safe for
// concurrent use: any number of goroutines may issue requests; responses are
// matched by sequence number, not arrival order.
type Client struct {
	cfg   ClientConfig
	conns []*clientConn
	next  atomic.Uint64
}

// Dial creates the pool. Connections are established lazily on first use
// (and re-established after failures), so Dial itself cannot fail on an
// unreachable server — the first request will.
func Dial(cfg ClientConfig) *Client {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	c := &Client{cfg: cfg, conns: make([]*clientConn, cfg.Conns)}
	for i := range c.conns {
		c.conns[i] = &clientConn{cfg: cfg, dial: net.DialTimeout}
	}
	return c
}

// Do issues one request on a pooled connection and waits for its response.
// The returned error covers transport failures only; protocol-level
// dispositions (including StatusOverloaded) are in the Response and are the
// caller's to interpret — or use the Ping/Get/Set/Inc helpers, which map
// them to errors.
func (c *Client) Do(op wire.Op, key string, arg int64) (wire.Response, error) {
	cc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	return cc.do(op, key, arg)
}

// Ping round-trips without touching the store.
func (c *Client) Ping() error {
	_, err := c.result(c.Do(wire.OpPing, "", 0))
	return err
}

// Get reads a key (ErrNotFound if absent).
func (c *Client) Get(key string) (int64, error) {
	return c.result(c.Do(wire.OpGet, key, 0))
}

// Set writes a key with a replicated transaction.
func (c *Client) Set(key string, v int64) error {
	_, err := c.result(c.Do(wire.OpSet, key, v))
	return err
}

// Inc atomically adds delta to a key (creating it at delta) and returns the
// new value.
func (c *Client) Inc(key string, delta int64) (int64, error) {
	return c.result(c.Do(wire.OpInc, key, delta))
}

func (c *Client) result(p wire.Response, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	switch p.Status {
	case wire.StatusOK:
		return p.Value, nil
	case wire.StatusNotFound:
		return 0, ErrNotFound
	case wire.StatusOverloaded:
		return 0, ErrOverloaded
	default:
		return 0, fmt.Errorf("clientsrv: server error: %s", p.Err)
	}
}

// Close tears the pool down; in-flight requests fail.
func (c *Client) Close() error {
	for _, cc := range c.conns {
		cc.shutdown()
	}
	return nil
}

// clientConn is one pooled connection: a shared writer and a reader
// goroutine delivering responses to the waiter registered under their Seq.
type clientConn struct {
	cfg ClientConfig
	// dial opens the connection: net.DialTimeout, or a test's wrapper that
	// watches the connection's reads.
	dial func(network, addr string, timeout time.Duration) (net.Conn, error)

	mu      sync.Mutex
	conn    net.Conn
	wbuf    []byte
	seq     uint64
	pending map[uint64]chan wire.Response
	closed  bool
}

var errClientClosed = errors.New("clientsrv: client closed")

// ensureConn dials and handshakes under c.mu if the connection is down.
func (c *clientConn) ensureConn() error {
	if c.closed {
		return errClientClosed
	}
	if c.conn != nil {
		return nil
	}
	conn, err := c.dial("tcp", c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("clientsrv: dial %s: %w", c.cfg.Addr, err)
	}
	if err := wire.WriteHandshake(conn, wire.CodecClient); err != nil {
		_ = conn.Close()
		return fmt.Errorf("clientsrv: handshake %s: %w", c.cfg.Addr, err)
	}
	if err := wire.ReadHandshake(conn, wire.CodecClient); err != nil {
		_ = conn.Close()
		return fmt.Errorf("clientsrv: %s is not a client port: %w", c.cfg.Addr, err)
	}
	c.conn = conn
	c.pending = make(map[uint64]chan wire.Response)
	go c.readLoop(conn)
	return nil
}

func (c *clientConn) do(op wire.Op, key string, arg int64) (wire.Response, error) {
	c.mu.Lock()
	if err := c.ensureConn(); err != nil {
		c.mu.Unlock()
		return wire.Response{}, err
	}
	c.seq++
	q := wire.Request{Seq: c.seq, Op: op, Key: key, Arg: arg}
	ch := respChans.Get().(chan wire.Response)
	c.pending[q.Seq] = ch
	c.wbuf = wire.AppendRequest(c.wbuf[:0], q)
	_, err := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > 4096 {
		c.wbuf = nil
	}
	if err != nil {
		delete(c.pending, q.Seq)
		c.dropConnLocked()
		c.mu.Unlock()
		respChans.Put(ch)
		return wire.Response{}, fmt.Errorf("clientsrv: write: %w", err)
	}
	c.mu.Unlock()

	p, ok := <-ch
	if !ok {
		return wire.Response{}, fmt.Errorf("clientsrv: connection to %s lost", c.cfg.Addr)
	}
	respChans.Put(ch)
	return p, nil
}

// respChans holds response channels for reuse. A channel goes back only
// after its one response was received: the reader removed it from pending
// before sending, so nothing else can send on it or close it. A channel
// closed by a lost connection is left to the collector.
var respChans = sync.Pool{New: func() any { return make(chan wire.Response, 1) }}

// readLoop delivers responses until the connection dies, then fails every
// waiter by closing its channel. It reads through a buffer as large as the
// server's: pipelined responses arrive together, and one read takes them all
// instead of two per response (header, body).
func (c *clientConn) readLoop(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	var buf []byte
	for {
		body, nbuf, err := wire.ReadFrame(br, buf, wire.MaxClientFrame)
		buf = nbuf
		if err != nil {
			break
		}
		msg, err := wire.DecodeClientFrame(body)
		if err != nil {
			break
		}
		p, ok := msg.(wire.Response)
		if !ok {
			break
		}
		c.mu.Lock()
		ch := c.pending[p.Seq]
		delete(c.pending, p.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- p
		}
	}
	c.mu.Lock()
	if c.conn == conn {
		c.dropConnLocked()
	}
	c.mu.Unlock()
}

// dropConnLocked closes the connection and fails all waiters. Callers hold
// c.mu.
func (c *clientConn) dropConnLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	for seq, ch := range c.pending {
		close(ch)
		delete(c.pending, seq)
	}
}

func (c *clientConn) shutdown() {
	c.mu.Lock()
	c.closed = true
	c.dropConnLocked()
	c.mu.Unlock()
}
