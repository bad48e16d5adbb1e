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
// randomized workload (plain acquisitions, replacements, wildcards) and
// checks the protocol's core safety invariant at every step of the bus's
// serialization point: no two replicas may simultaneously hold enabled,
// unreleased leases on intersecting conflict classes, and a wildcard holder
// excludes everyone.
func TestModelCheckMutualExclusion(t *testing.T) {
	const (
		managers  = 4
		perWorker = 30
		items     = 6
	)
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, managers, Config{DeadlockDetection: true})

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
			rng := rand.New(rand.NewSource(int64(i + 7)))
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
				switch err {
				case nil:
					held = id
					// Hold briefly so overlapping acquisitions pile up.
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				case ErrDeadlock:
					// Victim: retry with a fresh acquisition next round.
				default:
					t.Errorf("worker %d: %v", i, err)
					return
				}
			}
			if held != (RequestID{}) {
				m.Finished(held)
			}
		}(i, m)
	}
	wg.Wait()
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
