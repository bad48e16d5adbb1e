package lease

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// bus is a deterministic in-test group communication layer: broadcasts are
// serialized by a single dispatcher goroutine and delivered to every manager
// in the same order (a perfect, latency-free OAB/URB).
type bus struct {
	mu       sync.Mutex
	managers map[transport.ID]*Manager
	events   chan func()
	done     chan struct{}
	// afterEvent, when set, runs inside the dispatcher after every event —
	// the serialization point where cross-manager invariants are checkable.
	afterEvent func()
}

func newBus() *bus {
	b := &bus{
		managers: make(map[transport.ID]*Manager),
		events:   make(chan func(), 4096),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(b.done)
		for f := range b.events {
			f()
			if b.afterEvent != nil {
				b.afterEvent()
			}
		}
	}()
	return b
}

func (b *bus) close() {
	close(b.events)
	<-b.done
}

// endpoint returns a Broadcaster bound to one process.
func (b *bus) endpoint(id transport.ID) Broadcaster {
	return &busEndpoint{bus: b, id: id}
}

func (b *bus) register(id transport.ID, m *Manager) {
	b.mu.Lock()
	b.managers[id] = m
	b.mu.Unlock()
}

func (b *bus) all() []*Manager {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*Manager, 0, len(b.managers))
	for _, m := range b.managers {
		out = append(out, m)
	}
	return out
}

// sync waits until all queued deliveries are processed.
func (b *bus) sync() {
	done := make(chan struct{})
	b.events <- func() { close(done) }
	<-done
}

type busEndpoint struct {
	bus *bus
	id  transport.ID
}

func (e *busEndpoint) OABroadcast(body any) error {
	req, ok := body.(*Request)
	if !ok {
		return errors.New("bus: unexpected OAB body")
	}
	e.bus.events <- func() {
		for _, m := range e.bus.all() {
			m.HandleRequestOpt(req)
		}
		for _, m := range e.bus.all() {
			m.HandleRequestTO(req)
		}
	}
	return nil
}

func (e *busEndpoint) URBroadcast(body any) error {
	f, ok := body.(*Freed)
	if !ok {
		return errors.New("bus: unexpected URB body")
	}
	e.bus.events <- func() {
		for _, m := range e.bus.all() {
			m.HandleFreed(f)
		}
	}
	return nil
}

func newManagers(t *testing.T, b *bus, n int, cfg Config) []*Manager {
	t.Helper()
	out := make([]*Manager, n)
	for i := 0; i < n; i++ {
		id := transport.ID(i)
		m := NewManager(id, b.endpoint(id), cfg)
		b.register(id, m)
		out[i] = m
	}
	t.Cleanup(func() {
		for _, m := range out {
			m.Close()
		}
	})
	return out
}

// getLeaseT acquires a lease with a timeout, failing the test on deadlock.
func getLeaseT(t *testing.T, m *Manager, items []string) RequestID {
	t.Helper()
	type result struct {
		id  RequestID
		err error
	}
	ch := make(chan result, 1)
	go func() {
		id, err := m.GetLease(items)
		ch <- result{id, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("GetLease(%v): %v", items, r.err)
		}
		return r.id
	case <-time.After(5 * time.Second):
		t.Fatalf("GetLease(%v) timed out", items)
		return RequestID{}
	}
}

func TestSingleReplicaAcquiresImmediately(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 1, Config{})

	id := getLeaseT(t, ms[0], []string{"x"})
	if !ms[0].HoldsLease([]string{"x"}) {
		t.Fatal("lease not held after GetLease")
	}
	ms[0].Finished(id)
	// Lease retention: still held after the transaction finishes.
	if !ms[0].HoldsLease([]string{"x"}) {
		t.Fatal("lease dropped after Finished (retention violated)")
	}
}

func TestLeaseRetentionAvoidsRebroadcast(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	id1 := getLeaseT(t, ms[0], []string{"x"})
	ms[0].Finished(id1)
	id2 := getLeaseT(t, ms[0], []string{"x"})
	ms[0].Finished(id2)

	if id1 != id2 {
		t.Fatalf("second acquisition got new request %v, want reuse of %v", id2, id1)
	}
	st := ms[0].Stats()
	if st.Requested != 1 || st.Reused != 1 {
		t.Fatalf("stats = %+v, want Requested=1 Reused=1", st)
	}
}

func TestConflictingLeaseTransfers(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	id0 := getLeaseT(t, ms[0], []string{"x"})

	// Replica 1 requests the same item; the lease transfers once replica 0
	// finishes its transaction.
	acquired := make(chan RequestID, 1)
	go func() {
		id, err := ms[1].GetLease([]string{"x"})
		if err != nil {
			t.Error(err)
		}
		acquired <- id
	}()

	// Wait until replica 0's lease is blocked by the remote request.
	waitUntil(t, func() bool {
		b.sync()
		ms[0].mu.Lock()
		defer ms[0].mu.Unlock()
		st := ms[0].reqs[id0]
		return st != nil && st.blocked
	})
	select {
	case <-acquired:
		t.Fatal("replica 1 acquired the lease while replica 0 still holds it")
	default:
	}

	ms[0].Finished(id0)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("lease never transferred")
	}
	b.sync()
	if ms[0].HoldsLease([]string{"x"}) {
		t.Fatal("replica 0 still holds the transferred lease")
	}
	if !ms[1].HoldsLease([]string{"x"}) {
		t.Fatal("replica 1 does not hold the lease")
	}
}

func TestBlockedLeasePreventsReuse(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	id0 := getLeaseT(t, ms[0], []string{"x"})

	// A remote conflicting request blocks replica 0's lease.
	go func() {
		id, err := ms[1].GetLease([]string{"x"})
		if err == nil {
			ms[1].Finished(id)
		}
	}()
	waitUntil(t, func() bool {
		b.sync()
		ms[0].mu.Lock()
		defer ms[0].mu.Unlock()
		st := ms[0].reqs[id0]
		return st != nil && st.blocked
	})

	// A new local transaction must not piggyback on the blocked request:
	// its acquisition issues a fresh request (queued after replica 1's).
	done := make(chan struct{})
	go func() {
		defer close(done)
		id, err := ms[0].GetLease([]string{"x"})
		if err != nil {
			t.Error(err)
			return
		}
		if id == id0 {
			t.Error("blocked request was reused (fairness violated)")
		}
		ms[0].Finished(id)
	}()

	ms[0].Finished(id0) // let the transfer happen
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second acquisition stuck")
	}
	if got := ms[0].Stats().Requested; got != 2 {
		t.Fatalf("Requested = %d, want 2", got)
	}
}

func TestDisjointItemsNoInterference(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	idX := getLeaseT(t, ms[0], []string{"x"})
	idY := getLeaseT(t, ms[1], []string{"y"})
	b.sync()

	if !ms[0].HoldsLease([]string{"x"}) || !ms[1].HoldsLease([]string{"y"}) {
		t.Fatal("disjoint leases should be held concurrently")
	}
	ms[0].Finished(idX)
	ms[1].Finished(idY)
}

func TestMultiClassAtomicEnablement(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	// Replica 0 holds {x}; replica 1 wants {x, y}: it must wait for x even
	// though y is free, and then hold both atomically.
	id0 := getLeaseT(t, ms[0], []string{"x"})

	acquired := make(chan struct{})
	go func() {
		defer close(acquired)
		id, err := ms[1].GetLease([]string{"x", "y"})
		if err != nil {
			t.Error(err)
			return
		}
		if !ms[1].HoldsLease([]string{"x"}) || !ms[1].HoldsLease([]string{"y"}) {
			t.Error("multi-class lease not fully held")
		}
		ms[1].Finished(id)
	}()

	time.Sleep(50 * time.Millisecond)
	select {
	case <-acquired:
		t.Fatal("acquired {x,y} while x was held remotely")
	default:
	}
	ms[0].Finished(id0)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("multi-class acquisition stuck")
	}
}

func TestCoarseGranularityFalseSharing(t *testing.T) {
	b := newBus()
	defer b.close()
	// One single conflict class: everything conflicts with everything.
	ms := newManagers(t, b, 2, Config{Mapper: Mapper{NumClasses: 1}})

	id0 := getLeaseT(t, ms[0], []string{"x"})
	acquired := make(chan struct{})
	go func() {
		defer close(acquired)
		id, err := ms[1].GetLease([]string{"completely-different-item"})
		if err != nil {
			t.Error(err)
			return
		}
		ms[1].Finished(id)
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-acquired:
		t.Fatal("no false sharing observed under 1-class granularity")
	default:
	}
	ms[0].Finished(id0)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("acquisition stuck")
	}
}

func TestEjectionFailsWaiters(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	id0 := getLeaseT(t, ms[0], []string{"x"})
	defer ms[0].Finished(id0)

	errCh := make(chan error, 1)
	go func() {
		_, err := ms[1].GetLease([]string{"x"})
		errCh <- err
	}()
	waitUntil(t, func() bool {
		b.sync()
		return ms[1].QueueDepth([]string{"x"}) == 2
	})

	ms[1].HandleEjected()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNotPrimary) {
			t.Fatalf("waiter got %v, want ErrNotPrimary", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not released on ejection")
	}

	// New acquisitions are refused outright.
	if _, err := ms[1].GetLease([]string{"y"}); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("GetLease after ejection = %v, want ErrNotPrimary", err)
	}
}

func TestViewChangePurgesCrashedOwnersRequests(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 3, Config{})

	id0 := getLeaseT(t, ms[0], []string{"x"})
	_ = id0 // replica 0 "crashes" while holding the lease

	acquired := make(chan struct{})
	go func() {
		defer close(acquired)
		id, err := ms[1].GetLease([]string{"x"})
		if err != nil {
			t.Error(err)
			return
		}
		ms[1].Finished(id)
	}()
	waitUntil(t, func() bool {
		b.sync()
		return ms[1].QueueDepth([]string{"x"}) == 2
	})

	// Replica 0 is excluded from the view: its requests are purged and the
	// waiter proceeds.
	for _, m := range []*Manager{ms[1], ms[2]} {
		m.HandleViewChange([]transport.ID{1, 2}, nil)
	}
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stuck after crashed owner purge")
	}
}

func TestEarlyFreedBuffered(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 1, Config{})
	m := ms[0]

	// A release overtakes its request (URB vs OAB reordering).
	id := RequestID{Proc: 9, Seq: 1}
	m.HandleFreed(&Freed{IDs: []RequestID{id}})
	m.HandleRequestTO(&Request{ID: id, Classes: []ConflictClass{1, 2}})

	if m.QueueDepth([]string{"anything"}) != 0 {
		t.Fatal("early-freed request left residue in queues")
	}
	m.mu.Lock()
	depth := 0
	for _, q := range m.queues {
		depth += len(q)
	}
	m.mu.Unlock()
	if depth != 0 {
		t.Fatalf("queues not empty: %d entries", depth)
	}
}

func TestReplacementAtomicSwap(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	// Replica 0 holds {x}; the transaction re-executes touching {y} and
	// replaces the lease.
	idX := getLeaseT(t, ms[0], []string{"x"})
	if ms[0].ActiveCount(idX) != 1 {
		t.Fatalf("ActiveCount = %d, want 1", ms[0].ActiveCount(idX))
	}

	idY, err := ms[0].GetLeaseReplacing(ms[0].cfg.Mapper.Classes([]string{"y"}), idX)
	if err != nil {
		t.Fatalf("GetLeaseReplacing: %v", err)
	}
	b.sync()
	if ms[0].HoldsLease([]string{"x"}) {
		t.Fatal("old lease still held after replacement")
	}
	if !ms[0].HoldsLease([]string{"y"}) {
		t.Fatal("replacement lease not held")
	}
	// The old lease is immediately acquirable elsewhere.
	idX2 := getLeaseT(t, ms[1], []string{"x"})
	ms[1].Finished(idX2)
	ms[0].Finished(idY)
}

func TestCrossReplacementNoDeadlock(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	// The §4.4 scenario: replica 0 holds X and re-requests Y, replica 1
	// holds Y and re-requests X — with piggybacked releases there is no
	// deadlock.
	idX := getLeaseT(t, ms[0], []string{"x"})
	idY := getLeaseT(t, ms[1], []string{"y"})
	b.sync()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		id, err := ms[0].GetLeaseReplacing(ms[0].cfg.Mapper.Classes([]string{"y"}), idX)
		if err != nil {
			errs <- err
			return
		}
		ms[0].Finished(id)
	}()
	go func() {
		defer wg.Done()
		id, err := ms[1].GetLeaseReplacing(ms[1].cfg.Mapper.Classes([]string{"x"}), idY)
		if err != nil {
			errs <- err
			return
		}
		ms[1].Finished(id)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cross-replacement deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatalf("replacement failed: %v", err)
	}
}

func TestDeadlockDetectionBreaksHoldAndWait(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{DeadlockDetection: true})

	// Without piggybacked replacement: replica 0 holds X and requests Y
	// anew (keeping X active), replica 1 holds Y and requests X anew. The
	// wait-for-graph detector must pick a victim and release it.
	idX := getLeaseT(t, ms[0], []string{"x"})
	idY := getLeaseT(t, ms[1], []string{"y"})
	b.sync()

	results := make(chan error, 2)
	go func() {
		id, err := ms[0].GetLease([]string{"y"})
		if err == nil {
			ms[0].Finished(id)
		}
		results <- err
	}()
	go func() {
		id, err := ms[1].GetLease([]string{"x"})
		if err == nil {
			ms[1].Finished(id)
		}
		results <- err
	}()

	deadline := time.After(10 * time.Second)
	sawDeadlock := false
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if errors.Is(err, ErrDeadlock) {
				sawDeadlock = true
				// The victim retries the whole transaction: release the
				// lease it was holding, as its replication manager would.
				ms[0].Finished(idX)
				ms[1].Finished(idY)
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		case <-deadline:
			t.Fatal("deadlock not broken")
		}
	}
	if !sawDeadlock {
		t.Fatal("no ErrDeadlock surfaced despite circular wait")
	}
}

func TestStateSnapshotInstallRoundTrip(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	id0 := getLeaseT(t, ms[0], []string{"a", "b"})
	defer ms[0].Finished(id0)
	go func() { _, _ = ms[1].GetLease([]string{"b", "c"}) }()
	waitUntil(t, func() bool {
		b.sync()
		return ms[0].QueueDepth([]string{"b"}) == 2
	})

	snap := ms[0].SnapshotState()
	if len(snap.Requests) != 2 {
		t.Fatalf("snapshot has %d requests, want 2", len(snap.Requests))
	}

	joiner := NewManager(7, b.endpoint(7), Config{})
	defer joiner.Close()
	joiner.InstallState(snap)

	if joiner.QueueDepth([]string{"b"}) != 2 {
		t.Fatalf("joiner queue depth = %d, want 2", joiner.QueueDepth([]string{"b"}))
	}
	// The joiner agrees on who holds the lease on {a,b}.
	joiner.mu.Lock()
	st := joiner.reqs[id0]
	holds := st != nil && joiner.enabledLocked(st)
	joiner.mu.Unlock()
	if !holds {
		t.Fatal("joiner does not see replica 0's enabled lease")
	}
}

func TestPayloadHandlerFiresOncePerRequest(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	var mu sync.Mutex
	fired := make(map[RequestID]int)
	for _, m := range ms {
		m.SetPayloadHandler(func(req *Request, _ uint64) {
			mu.Lock()
			fired[req.ID]++
			mu.Unlock()
		})
	}

	id0, err := ms[0].GetLeaseWithPayload(ms[0].cfg.Mapper.Classes([]string{"x"}), 1)
	if err != nil {
		t.Fatal(err)
	}
	id1ch := make(chan RequestID, 1)
	go func() {
		id, err := ms[1].GetLeaseWithPayload(ms[1].cfg.Mapper.Classes([]string{"x"}), 2)
		if err == nil {
			id1ch <- id
		}
	}()
	waitUntil(t, func() bool {
		b.sync()
		return ms[0].QueueDepth([]string{"x"}) == 2
	})
	ms[0].Finished(id0)
	var id1 RequestID
	select {
	case id1 = <-id1ch:
	case <-time.After(5 * time.Second):
		t.Fatal("transfer stuck")
	}
	ms[1].Finished(id1)
	b.sync()

	mu.Lock()
	defer mu.Unlock()
	for id, n := range fired {
		if n != 2 { // once per manager
			t.Fatalf("payload for %v fired %d times across 2 managers, want 2", id, n)
		}
	}
	if len(fired) != 2 {
		t.Fatalf("payload fired for %d requests, want 2", len(fired))
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
