//go:build !race

package tcpnet

import (
	"runtime"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/transport"
)

// TestAllocBudgetIdlePeer: a peer's send queue is allocated on demand under
// the queueSize bound. Starting a peer allocates no queueSize-slot array
// (8192 slots were 128 KiB per peer), a short burst fits in the peer's
// inline slots, and a peer that has drained a longer one holds no array.
func TestAllocBudgetIdlePeer(t *testing.T) {
	a, b := newPair(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := a.peerFor(b.Self())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("starting a peer allocated %d bytes, want < 4 KiB", got)
	}

	const burst = 100
	for i := range burst {
		if err := a.Send(b.Self(), i); err != nil {
			t.Fatal(err)
		}
	}
	for range burst {
		recvOne(t, b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		inline := onInline(p)
		held := cap(p.queue)
		p.mu.Unlock()
		if inline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("an idle peer holds a queue array of %d slots", held)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocBudgetDirectSend: a Send that finds its peer's connection idle
// encodes the frame into the peer's reused buffer and writes it on the
// caller's goroutine. Warmed, a URB data frame costs that no allocation.
func TestAllocBudgetDirectSend(t *testing.T) {
	gcs.RegisterWire()
	a, _ := newRawPeer(t, 1) // reads the first frame, then holds the rest
	frame := urbFrame(t)
	if err := a.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	p, err := a.peerFor(1)
	if err != nil {
		t.Fatal(err)
	}
	waitIdle(t, p)
	if err := a.Send(1, frame); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() { _ = a.Send(1, frame) })
	if idle, _, _ := peerState(p); !idle {
		t.Fatal("frames still wait after the sends: they did not all leave directly")
	}
	if allocs != 0 {
		t.Fatalf("a direct Send of a URB data frame allocated %.1f times, want 0", allocs)
	}
}

// urbFrame returns the data frame a gcs endpoint sends to a peer for one
// URB broadcast.
func urbFrame(t *testing.T) any {
	t.Helper()
	a, _ := newPair(t)
	c := &capture{Transport: a}
	ep, err := gcs.NewEndpoint(c, &chanHandler{}, gcs.Config{Members: []transport.ID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.URBroadcast("a write-set"); err != nil {
		t.Fatal(err)
	}
	if c.last == nil {
		t.Fatal("the broadcast sent nothing before it returned")
	}
	return c.last
}

// capture records the last payload sent through it.
type capture struct {
	transport.Transport
	last any
}

func (c *capture) Send(to transport.ID, payload any) error {
	c.last = payload
	return c.Transport.Send(to, payload)
}
