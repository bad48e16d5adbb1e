package lease

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// TestModelCheckMutualExclusion drives several lease managers with a
// randomized workload (plain acquisitions, shared joins, replacements,
// wildcards and §4.5(c) payload requests) and checks the protocol's core
// safety invariant at every step of the bus's serialization point: no two
// replicas may simultaneously hold enabled, unreleased leases on intersecting
// conflict classes, and a wildcard holder excludes everyone. It runs each seed
// with and without the §4.5(b) optimistic release, which the replication
// manager enables by default.
//
// The workers follow the replication manager's rule — never wait for a lease
// while associated with another one: a replacement or a wildcard releases the
// held request in the same totally ordered step, a plain acquisition finishes
// the held one first, and a payload request is issued only with nothing held.
// With that rule §4.4 admits no lease deadlock, so no acquisition may fail
// with ErrDeadlock (nothing here installs state) and the run must not hang.
func TestModelCheckMutualExclusion(t *testing.T) {
	for _, cfg := range []Config{{}, {OptimisticFree: true}} {
		for seed := int64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("opt=%t/seed=%d", cfg.OptimisticFree, seed)
			t.Run(name, func(t *testing.T) { runModelCheck(t, cfg, seed) })
		}
	}
}

func runModelCheck(t *testing.T, cfg Config, seed int64) {
	const (
		managers  = 4
		perWorker = 30
		items     = 6
	)
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, managers, cfg)

	// The invariant checker runs inside the bus dispatcher: between events
	// the replicated state is quiescent, so enabled-lease sets are
	// comparable across managers.
	var violation string
	checkOnce := func() {
		type hold struct {
			proc     transport.ID
			classes  []ConflictClass
			wildcard bool
		}
		var holds []hold
		for _, m := range b.all() {
			m.mu.Lock()
			for _, st := range m.reqs {
				if st.local && st.enqueued && !st.freed && !st.aborted && m.enabledLocked(st) {
					holds = append(holds, hold{
						proc:     m.self,
						classes:  st.req.Classes,
						wildcard: st.req.Wildcard,
					})
				}
			}
			m.mu.Unlock()
		}
		for i := 0; i < len(holds); i++ {
			for j := i + 1; j < len(holds); j++ {
				a, c := holds[i], holds[j]
				if a.proc == c.proc {
					continue
				}
				conflict := a.wildcard || c.wildcard || intersects(a.classes, c.classes)
				if conflict && violation == "" {
					violation = fmt.Sprintf(
						"replicas %d and %d hold conflicting enabled leases (wildcards %t/%t)",
						a.proc, c.proc, a.wildcard, c.wildcard)
				}
			}
		}
	}
	b.afterEvent = checkOnce

	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i int, m *Manager) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*managers + int64(i)))
			var held RequestID
			for op := 0; op < perWorker; op++ {
				// Random item subset.
				set := make([]string, 0, 3)
				for k := 0; k < 1+rng.Intn(3); k++ {
					set = append(set, fmt.Sprintf("item-%d", rng.Intn(items)))
				}
				var (
					id  RequestID
					err error
				)
				switch {
				case held == (RequestID{}) && rng.Intn(8) == 0:
					id, err = m.GetLeaseWithPayload(m.cfg.Mapper.Classes(set), op)
				case rng.Intn(10) == 0:
					id, err = m.GetLeaseEverything(held)
					held = RequestID{}
				case held != (RequestID{}) && rng.Intn(3) == 0 && m.ActiveCount(held) == 1:
					id, err = m.GetLeaseReplacing(m.cfg.Mapper.Classes(set), held)
					held = RequestID{}
				default:
					if held != (RequestID{}) {
						m.Finished(held)
						held = RequestID{}
					}
					id, err = m.GetLease(set)
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", i, op, err)
					return
				}
				held = id
				// Hold briefly so overlapping acquisitions pile up.
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
			if held != (RequestID{}) {
				m.Finished(held)
			}
		}(i, m)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// Release the parked workers before failing, so none outlives the test.
		for _, m := range ms {
			m.Close()
		}
		<-done
		t.Fatal("workers still waiting for leases after 10s: lease deadlock")
	}
	// Two syncs: the first flushes outstanding events, the second orders
	// this goroutine after the first sentinel's own afterEvent hook.
	b.sync()
	b.sync()

	if violation != "" {
		t.Fatalf("mutual exclusion violated: %s", violation)
	}
	if t.Failed() {
		t.FailNow()
	}
}
