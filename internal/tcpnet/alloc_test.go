//go:build !race

package tcpnet

import (
	"runtime"
	"testing"
	"time"
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
