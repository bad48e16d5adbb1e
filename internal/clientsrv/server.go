// Package clientsrv gives a replica a client front door: a TCP server
// speaking the wire client protocol (wire.Request/wire.Response frames over a
// CodecClient handshake), and a connection-pooled, pipelined client for
// benchmarks and applications.
//
// The server applies two layers of admission control:
//
//   - Per-connection inflight bound (Config.MaxInflight): the read loop
//     blocks once a connection has that many requests executing, so a single
//     client cannot spawn unbounded server goroutines — backpressure reaches
//     it through TCP instead.
//
//   - Global queue-depth shedding (Config.MaxPending): once the whole
//     server has MaxPending requests executing, further requests are not
//     executed at all — they are answered immediately with
//     wire.StatusOverloaded, the protocol's retryable-by-contract status.
//     Shedding costs one response frame, never a transaction, so admitted
//     traffic keeps its throughput while the excess bounces.
//
// Both layers are observable: Stats() snapshots feed the alc_admission_*
// metric families in internal/obs.
package clientsrv

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"github.com/alcstm/alc/internal/wire"
)

// ErrNotFound reports a Get on an absent key (wire.StatusNotFound). Backends
// return it to distinguish "no such key" from execution failure.
var ErrNotFound = errors.New("clientsrv: key not found")

// Backend executes one client operation. Implementations must be safe for
// concurrent use; the server calls Exec from a pool of up to MaxInflight
// worker goroutines per connection. Returning ErrNotFound maps to
// wire.StatusNotFound, any other error to wire.StatusErr.
type Backend interface {
	Exec(op wire.Op, key string, arg int64) (int64, error)
}

// BackendFunc adapts a function to the Backend interface.
type BackendFunc func(op wire.Op, key string, arg int64) (int64, error)

// Exec implements Backend.
func (f BackendFunc) Exec(op wire.Op, key string, arg int64) (int64, error) {
	return f(op, key, arg)
}

// Config configures a client-protocol server.
type Config struct {
	// Backend executes admitted requests. Required.
	Backend Backend
	// MaxInflight bounds concurrently executing requests per connection;
	// the connection's read loop stalls at the limit (TCP backpressure).
	// Default 64.
	MaxInflight int
	// MaxPending bounds concurrently executing requests server-wide; beyond
	// it, requests are shed with wire.StatusOverloaded instead of executed.
	// Default 1024.
	MaxPending int
	// Logf receives connection diagnostics. Defaults to the standard logger.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Backend == nil {
		return fmt.Errorf("clientsrv: Config.Backend is required")
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// Stats is a point-in-time admission-control snapshot.
type Stats struct {
	// Conns counts accepted client connections.
	Conns int64
	// HandshakeRejects counts connections refused at handshake (a replica
	// or foreign protocol dialed the client port).
	HandshakeRejects int64
	// Admitted counts requests dispatched to the backend.
	Admitted int64
	// Shed counts requests answered with StatusOverloaded instead of
	// executed.
	Shed int64
	// Completed counts admitted requests whose response was written.
	Completed int64
	// Inflight is the number of requests executing right now.
	Inflight int64
	// PendingLimit echoes Config.MaxPending (the shed threshold).
	PendingLimit int64
}

// Server is a running client-protocol endpoint.
type Server struct {
	cfg Config
	ln  net.Listener

	conns            atomic.Int64
	handshakeRejects atomic.Int64
	admitted         atomic.Int64
	shed             atomic.Int64
	completed        atomic.Int64
	inflight         atomic.Int64

	mu   sync.Mutex
	open map[net.Conn]struct{}
	stop sync.Once
	done chan struct{}
	wg   sync.WaitGroup
}

// Serve starts a client-protocol server on addr (":0" for an ephemeral
// port).
func Serve(addr string, cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("clientsrv: listen %s: %w", addr, err)
	}
	s := &Server{
		cfg:  cfg,
		ln:   ln,
		open: make(map[net.Conn]struct{}),
		done: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the admission counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:            s.conns.Load(),
		HandshakeRejects: s.handshakeRejects.Load(),
		Admitted:         s.admitted.Load(),
		Shed:             s.shed.Load(),
		Completed:        s.completed.Load(),
		Inflight:         s.inflight.Load(),
		PendingLimit:     int64(s.cfg.MaxPending),
	}
}

// Close stops accepting, closes every connection and waits for workers.
func (s *Server) Close() error {
	s.stop.Do(func() {
		close(s.done)
		_ = s.ln.Close()
		s.mu.Lock()
		for c := range s.open {
			_ = c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		s.open[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}

// connWriter serializes response frames onto one connection. Responses leave
// in completion order; the encode buffer is reused across responses.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

func (w *connWriter) send(p wire.Response) {
	w.mu.Lock()
	w.buf = wire.AppendResponse(w.buf[:0], p)
	_, _ = w.conn.Write(w.buf) // a failed write surfaces in the read loop
	if cap(w.buf) > 4096 {
		w.buf = nil
	}
	w.mu.Unlock()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)
	defer conn.Close()

	br := bufio.NewReaderSize(conn, 32<<10)
	if err := wire.ReadHandshake(br, wire.CodecClient); err != nil {
		s.handshakeRejects.Add(1)
		s.cfg.Logf("clientsrv: refusing %s: %v", conn.RemoteAddr(), err)
		return
	}
	if err := wire.WriteHandshake(conn, wire.CodecClient); err != nil {
		return
	}
	s.conns.Add(1)

	w := &connWriter{conn: conn}
	// sem bounds this connection's executing requests; acquiring it in the
	// read loop stalls frame intake at the limit, which is exactly the
	// backpressure contract.
	sem := make(chan struct{}, s.cfg.MaxInflight)
	// work hands admitted requests to this connection's workers, started on
	// demand up to MaxInflight and kept: a worker's stack has grown to what
	// a transaction needs by its first request. They exit when the read loop
	// does.
	work := make(chan wire.Request)
	defer close(work)
	workers := 0
	var buf []byte
	for {
		body, nbuf, err := wire.ReadFrame(br, buf, wire.MaxClientFrame)
		buf = nbuf
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("clientsrv: dropping %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		msg, err := wire.DecodeClientFrame(body)
		if err != nil {
			s.cfg.Logf("clientsrv: dropping %s: %v", conn.RemoteAddr(), err)
			return
		}
		q, ok := msg.(wire.Request)
		if !ok {
			s.cfg.Logf("clientsrv: dropping %s: unexpected %T frame", conn.RemoteAddr(), msg)
			return
		}

		// Global shed check first: a saturated server answers cheaply and
		// immediately, without consuming an inflight slot or a goroutine.
		if s.inflight.Load() >= int64(s.cfg.MaxPending) {
			s.shed.Add(1)
			w.send(wire.Response{
				Seq:    q.Seq,
				Status: wire.StatusOverloaded,
				Err:    "server overloaded, retry",
			})
			continue
		}

		select {
		case sem <- struct{}{}:
		case <-s.done:
			return
		}
		s.inflight.Add(1)
		s.admitted.Add(1)
		select {
		case work <- q: // an idle worker takes it
		default:
			if workers < s.cfg.MaxInflight {
				workers++
				s.wg.Add(1)
				go s.worker(w, q, work, sem)
			} else {
				// Every worker is busy or just released its slot: the
				// semaphore let this request in, so one is on its way back.
				work <- q
			}
		}
	}
}

// worker executes q, then every request handed to it on work until the
// connection's read loop closes it.
func (s *Server) worker(w *connWriter, q wire.Request, work <-chan wire.Request, sem <-chan struct{}) {
	defer s.wg.Done()
	for ok := true; ok; q, ok = <-work {
		w.send(s.exec(q))
		s.inflight.Add(-1)
		s.completed.Add(1)
		<-sem
	}
}

func (s *Server) exec(q wire.Request) wire.Response {
	v, err := s.cfg.Backend.Exec(q.Op, q.Key, q.Arg)
	switch {
	case err == nil:
		return wire.Response{Seq: q.Seq, Status: wire.StatusOK, Value: v}
	case errors.Is(err, ErrNotFound):
		return wire.Response{Seq: q.Seq, Status: wire.StatusNotFound}
	default:
		return wire.Response{Seq: q.Seq, Status: wire.StatusErr, Err: err.Error()}
	}
}
