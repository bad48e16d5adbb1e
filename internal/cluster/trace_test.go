package cluster

import (
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/trace"
)

// TestTraceRingEventsAreReadable runs a short traced cluster through lease
// rotation, a failed transaction and a view change, then checks that every
// event left in the ring renders with a message: a ring dump is the
// debugging surface, and a bare "lease" line only takes a slot that a
// readable event could have held.
func TestTraceRingEventsAreReadable(t *testing.T) {
	tr := trace.New(1 << 12)
	c := newCluster(t, 3, core.Config{
		Protocol: core.ProtocolALC,
		Tracer:   tr,
		Lease:    lease.Config{Tracer: tr},
	})
	for round := 0; round < 5; round++ {
		for i := 0; i < c.N(); i++ { // the counter's lease rotates every commit
			if err := c.Replica(i).Atomic(increment("counter")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Replica(0).Atomic(increment("missing")); err == nil {
		t.Fatal("increment of a missing box committed")
	}
	c.Crash(2)
	if err := c.Replica(0).WaitForView(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	kinds := make(map[trace.Kind]int)
	for _, e := range tr.Events() {
		kinds[e.Kind]++
		if e.Msg == "" {
			t.Errorf("event without a message: %s (payload %T)", e.Format(tr.Start()), e.Payload)
		}
	}
	for _, k := range []trace.Kind{trace.KindTxnInvoked, trace.KindTxnCommitted,
		trace.KindTxnFailed, trace.KindLease, trace.KindView} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in the ring (%v)", k, kinds)
		}
	}
}
