package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
)

// TestConcurrentFirstIncrementsThroughClientPort: two replicas, each behind
// its own client port, increment the same fresh keys at the same time, so
// every key is created by one of two racing OpIncs. The final value of every
// key must equal its acknowledged increments, on every replica. A read that
// found the key absent used to leave no read-set entry: both first increments
// committed 1 and one acknowledged increment vanished.
func TestConcurrentFirstIncrementsThroughClientPort(t *testing.T) {
	c := newCluster(t, 2, core.Config{Protocol: core.ProtocolALC})
	const (
		keys    = 1000 // per replica: one OpInc per key
		workers = 8    // concurrent callers per replica
	)
	acked := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for _, r := range c.Replicas() {
		srv, err := clientsrv.Serve("127.0.0.1:0", clientsrv.Config{
			Backend: clientsrv.ReplicaBackend{R: r},
			Logf:    func(string, ...any) {},
		})
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := clientsrv.Dial(clientsrv.ClientConfig{Addr: srv.Addr(), Conns: 2})
		t.Cleanup(func() { _ = client.Close() })
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w; k < keys; k += workers {
					if _, err := client.Inc(fmt.Sprintf("fresh%04d", k), 1); err != nil {
						t.Errorf("replica %d: Inc(fresh%04d): %v", r.ID(), k, err)
						return
					}
					acked[k].Add(1)
				}
			}(w)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Replicas() {
		for k := range acked {
			key := fmt.Sprintf("fresh%04d", k)
			if got, want := readBox(t, r, key), int(acked[k].Load()); got != want {
				t.Fatalf("replica %d: %s = %v after %d acknowledged increments", r.ID(), key, got, want)
			}
		}
	}
}
