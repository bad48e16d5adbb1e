package gcs

import (
	"fmt"
	"testing"

	"github.com/alcstm/alc/internal/transport"
)

// TestDrainOutboxKeepsOrder: a backlog leaves in submission order, each
// message numbered after the one before it, and the outbox ends empty. The
// endpoint is blocked while the backlog builds, or each broadcast would
// leave at once.
func TestDrainOutboxKeepsOrder(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	const n = 100
	e.blocked = true
	for i := range n {
		if err := e.URBroadcast(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.outbox) != n {
		t.Fatalf("outbox holds %d messages, want the %d submitted", len(e.outbox), n)
	}
	e.blocked = false
	e.drainOutbox()
	var got []*urbData
	for i, p := range sent.payloads {
		if d, ok := p.(*urbData); ok && sent.to[i] == 1 {
			got = append(got, d)
		}
	}
	if len(got) != n {
		t.Fatalf("peer 1 was sent %d messages, want %d", len(got), n)
	}
	for i, d := range got {
		if want := fmt.Sprintf("m%d", i); d.Body != want || d.ID.Seq != uint64(i+1) {
			t.Fatalf("message %d = %v seq %d, want %s seq %d", i, d.Body, d.ID.Seq, want, i+1)
		}
	}
	if len(e.outbox) != 0 {
		t.Fatalf("outbox holds %d messages after the drain", len(e.outbox))
	}
}

// dataFrames returns the bodies of the data frames sent to peer, in order.
func dataFrames(sent *sentLog, peer transport.ID) []any {
	var out []any
	for i, p := range sent.payloads {
		if d, ok := p.(*urbData); ok && sent.to[i] == peer {
			out = append(out, d.Body)
		}
	}
	return out
}

// TestBroadcastSendsBeforeReturning: in an unblocked installed view a
// broadcast is sent to both peers on the caller's goroutine, before
// URBroadcast returns and with no dispatcher running. A URB broadcast leaves
// the dispatcher no work and does not wake it; an OAB broadcast at the
// sequencer leaves an order slot and an Opt-delivery, and does.
func TestBroadcastSendsBeforeReturning(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	if err := e.URBroadcast("now"); err != nil {
		t.Fatal(err)
	}
	for _, peer := range []transport.ID{1, 2} {
		if got := dataFrames(sent, peer); len(got) != 1 || got[0] != "now" {
			t.Fatalf("peer %d was sent %v before URBroadcast returned, want [now]", peer, got)
		}
	}
	if len(e.outbox) != 0 || len(e.notify) != 0 {
		t.Fatalf("an inline URB broadcast left outbox %d and a wake-up %t", len(e.outbox), len(e.notify) != 0)
	}
	if err := e.OABroadcast("ordered"); err != nil {
		t.Fatal(err)
	}
	if got := dataFrames(sent, 1); len(got) != 2 || got[1] != "ordered" {
		t.Fatalf("peer 1 was sent %v, want the OAB broadcast second", got)
	}
	if len(e.vs.seqQueue) != 1 || len(e.notify) != 1 {
		t.Fatalf("an OAB broadcast at the sequencer left %d order slots and a wake-up %t, want 1 and true",
			len(e.vs.seqQueue), len(e.notify) != 0)
	}
}

// TestHeldBroadcastsQueueAndKeepOrder: while a flush blocks the endpoint, or
// its install has not left, a broadcast is queued, not sent; a broadcast
// submitted after the hold lifts queues behind it instead of overtaking it,
// and the drain sends both in submission order.
func TestHeldBroadcastsQueueAndKeepOrder(t *testing.T) {
	for _, hold := range []string{"blocked", "pendingSend"} {
		t.Run(hold, func(t *testing.T) {
			e, sent, _ := unstarted(t, 0, 0, 1, 2)
			set := func(on bool) {
				e.mu.Lock()
				defer e.mu.Unlock()
				if hold == "blocked" {
					e.blocked = on
				} else if e.pendingSend = nil; on {
					e.pendingSend = &pendingInstall{}
				}
			}
			set(true)
			if err := e.URBroadcast("first"); err != nil {
				t.Fatal(err)
			}
			if got := dataFrames(sent, 1); len(got) != 0 || len(e.outbox) != 1 {
				t.Fatalf("held broadcast: sent %v, outbox %d; want nothing sent and one queued", got, len(e.outbox))
			}
			set(false)
			if err := e.URBroadcast("second"); err != nil {
				t.Fatal(err)
			}
			if got := dataFrames(sent, 1); len(got) != 0 || len(e.outbox) != 2 {
				t.Fatalf("broadcast behind a queued one: sent %v, outbox %d; want it queued behind", got, len(e.outbox))
			}
			e.drainOutbox()
			if got := dataFrames(sent, 1); len(got) != 2 || got[0] != "first" || got[1] != "second" {
				t.Fatalf("drain sent %v, want [first second]", got)
			}
			if err := e.URBroadcast("third"); err != nil {
				t.Fatal(err)
			}
			if got := dataFrames(sent, 1); len(got) != 3 || got[2] != "third" || len(e.outbox) != 0 {
				t.Fatalf("after the drain: sent %v, outbox %d; want the third sent inline", got, len(e.outbox))
			}
		})
	}
}

// BenchmarkDrainOutbox sends a backlog of queued broadcasts; ns/msg is the
// cost of one message and should not grow with the backlog.
func BenchmarkDrainOutbox(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("queued=%d", n), func(b *testing.B) {
			e, sent, _ := unstarted(b, 0, 0, 1, 2)
			sent.onSend = func(transport.ID, any) {
				sent.to, sent.payloads = sent.to[:0], sent.payloads[:0]
			}
			for range b.N {
				b.StopTimer()
				e.mu.Lock()
				// Nothing acknowledges the staged messages: drop them so
				// every round starts from the same state.
				e.vs.pending[e.vs.self] = e.vs.pending[e.vs.self][:0]
				for i := range n {
					e.outbox = append(e.outbox, outMsg{kind: kindURB, body: i})
				}
				e.mu.Unlock()
				b.StartTimer()
				e.drainOutbox()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/msg")
		})
	}
}
