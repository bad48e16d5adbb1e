package gcs

import (
	"fmt"
	"testing"

	"github.com/alcstm/alc/internal/transport"
)

// TestDrainOutboxKeepsOrder: a backlog leaves in submission order, each
// message numbered after the one before it, and the outbox ends empty.
func TestDrainOutboxKeepsOrder(t *testing.T) {
	e, sent, _ := unstarted(t, 0, 0, 1, 2)
	const n = 100
	for i := range n {
		if err := e.URBroadcast(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
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
