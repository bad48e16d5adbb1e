package lease

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// TestModelCheckMutualExclusion drives several lease managers, two workers
// each, with a randomized workload (acquisitions, shared joins, kept,
// replaced and left leases, wildcards and §4.5(c) payload requests after a
// lease miss) and checks two safety invariants at every step of the bus's
// serialization point: no two replicas may simultaneously hold enabled,
// unreleased leases on intersecting conflict classes (a wildcard holder
// excludes everyone), and every lease a worker holds is enabled, unreleased,
// at its own replica — a transaction runs only under a held lease (§4). It
// runs each seed with and without the §4.5(b) optimistic release, which the
// replication manager enables by default.
//
// The workers drive Establish the way the replication manager does: each op
// is one commit attempt of a transaction that passes the lease it holds, and
// a transaction ends (Finished) now and then. Establish never waits for a
// lease while the transaction is associated with another one, so §4.4 admits
// no lease deadlock: no acquisition may fail with ErrDeadlock (nothing here
// installs state) and the run must not hang.
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
		workers   = 2 // per manager: a lease can be shared
		perWorker = 30
		items     = 6
	)
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, managers, cfg)

	// holding[w] is the lease worker w runs under, zero between ops; a
	// worker clears it before it passes the lease on.
	var (
		holdMu  sync.Mutex
		holding [managers * workers]RequestID
	)

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
		holdMu.Lock()
		defer holdMu.Unlock()
		for w, id := range holding {
			if id == (RequestID{}) {
				continue
			}
			m := ms[w/workers]
			m.mu.Lock()
			st := m.reqs[id]
			held := st != nil && !st.freed && m.enabledLocked(st)
			m.mu.Unlock()
			if !held && violation == "" {
				violation = fmt.Sprintf("worker %d runs under %v, which replica %d no longer holds", w, id, m.self)
			}
		}
	}
	b.afterEvent = checkOnce

	var wg sync.WaitGroup
	for w := 0; w < managers*workers; w++ {
		wg.Add(1)
		go func(w int, m *Manager) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*managers*workers + int64(w)))
			hold := func(id RequestID) {
				holdMu.Lock()
				holding[w] = id
				holdMu.Unlock()
			}
			var held RequestID
			for op := 0; op < perWorker; op++ {
				hold(RequestID{})
				if held != (RequestID{}) && rng.Intn(3) == 0 {
					// The transaction commits: the next op starts another.
					m.Finished(held)
					held = RequestID{}
				}
				// Random item subset; now and then a wildcard.
				set := make([]string, 0, 3)
				for k := 0; k < 1+rng.Intn(3); k++ {
					set = append(set, fmt.Sprintf("item-%d", rng.Intn(items)))
				}
				classes := m.cfg.Mapper.Classes(set)
				if rng.Intn(10) == 0 {
					classes = nil
				}
				id, err := m.Establish(held, classes, classes != nil && rng.Intn(4) == 0)
				if errors.Is(err, ErrMiss) {
					id, err = m.GetLeaseWithPayload(classes, op)
				}
				held = id
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, op, err)
					return
				}
				hold(held)
				// Hold briefly so overlapping acquisitions pile up.
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			}
			hold(RequestID{})
			if held != (RequestID{}) {
				m.Finished(held)
			}
		}(w, ms[w/workers])
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
		t.Fatalf("safety violated: %s", violation)
	}
	if t.Failed() {
		t.FailNow()
	}
}
