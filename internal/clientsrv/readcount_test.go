package clientsrv

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/wire"
)

// countingConn counts the Read calls made on a connection.
type countingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestPipelinedResponsesTakeFewReads: 100 responses that arrive in one
// write are read in a handful of Read calls, not one for each frame header
// and one for each body.
func TestPipelinedResponsesTakeFewReads(t *testing.T) {
	const n = 100
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- servePipelined(ln, n) }()

	c := Dial(ClientConfig{Addr: ln.Addr().String(), Conns: 1})
	defer c.Close()
	var reads atomic.Int64
	c.conns[0].dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: conn, reads: &reads}, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("Ping: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	got := reads.Load()
	if got >= n {
		t.Fatalf("%d pipelined responses took %d Read calls, want fewer than %d", n, got, n)
	}
	t.Logf("%d pipelined responses took %d Read calls", n, got)
}

// servePipelined accepts one client connection, reads n requests and
// answers them all with a single write.
func servePipelined(ln net.Listener, n int) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if err := wire.ReadHandshake(br, wire.CodecClient); err != nil {
		return err
	}
	if err := wire.WriteHandshake(conn, wire.CodecClient); err != nil {
		return err
	}
	var buf, out []byte
	for range n {
		body, nbuf, err := wire.ReadFrame(br, buf, wire.MaxClientFrame)
		if err != nil {
			return err
		}
		buf = nbuf
		msg, err := wire.DecodeClientFrame(body)
		if err != nil {
			return err
		}
		q := msg.(wire.Request)
		out = wire.AppendResponse(out, wire.Response{Seq: q.Seq, Status: wire.StatusOK})
	}
	_, err = conn.Write(out)
	return err
}
