package lease

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// The §4.5(c) payload of a lease request is certified and applied where the
// request becomes enabled. These tests pin down the rules that make every
// replica fire a payload exactly once, after the same conflicting history: a
// payload fires on delivered events only, its owner never takes it back before
// it fired, and a state transfer hands over which payloads are resolved.

// firedLog records payload callbacks; safe for callbacks on bus goroutines.
type firedLog struct {
	mu  sync.Mutex
	ids []RequestID
}

func (l *firedLog) handler(req *Request, _ uint64) {
	l.mu.Lock()
	l.ids = append(l.ids, req.ID)
	l.mu.Unlock()
}

func (l *firedLog) get() []RequestID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.ids)
}

// takeOAB waits for the lone manager's next OA-broadcast request.
func takeOAB(t *testing.T, b *diffBus) *Request {
	t.Helper()
	var req *Request
	waitUntil(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		if len(b.oab) == 0 {
			return false
		}
		req, b.oab = b.oab[0], b.oab[1:]
		return true
	})
	return req
}

// acquireLocal has a lone manager acquire a lease, TO-delivering its request.
func acquireLocal(t *testing.T, m *Manager, b *diffBus, items []string) RequestID {
	t.Helper()
	done := make(chan RequestID, 1)
	go func() {
		id, err := m.GetLease(items)
		if err != nil {
			t.Errorf("GetLease: %v", err)
		}
		done <- id
	}()
	m.HandleRequestTO(takeOAB(t, b))
	select {
	case id := <-done:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("GetLease did not return")
		return RequestID{}
	}
}

func freedNames(b *diffBus, id RequestID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, batch := range b.freed {
		if slices.Contains(batch, id) {
			return true
		}
	}
	return false
}

// TestPayloadBehindLocalReleaseWaitsForItsDelivery: a lease released here is
// dequeued at once, before its release is broadcast, so a request queued
// behind it is enabled here first. Its payload must wait for the release's
// own delivery: until then the other replicas have not enabled it, and a
// replica that crashes or is cut off in between would have applied a payload
// the group never applies.
func TestPayloadBehindLocalReleaseWaitsForItsDelivery(t *testing.T) {
	b := &diffBus{}
	m := NewManager(0, b, Config{})
	defer m.Close()
	var fired firedLog
	m.SetPayloadHandler(fired.handler)

	own := acquireLocal(t, m, b, []string{"x"})
	p := &Request{ID: RequestID{Proc: 1, Seq: 1}, Classes: m.cfg.Mapper.Classes([]string{"x"}), Payload: "p"}
	m.HandleRequestTO(p) // blocks this replica's lease
	m.Finished(own)      // drained: released here, its Freed not yet delivered
	if !freedNames(b, own) {
		t.Fatal("drained blocked lease was not released")
	}
	// An unrelated delivery settles the table.
	m.HandleRequestTO(&Request{ID: RequestID{Proc: 2, Seq: 1}, Classes: m.cfg.Mapper.Classes([]string{"y"})})
	if got := fired.get(); len(got) != 0 {
		t.Fatalf("payload fired before the release enabling it was delivered: %v", got)
	}
	b.mu.Lock()
	release := b.urb[0]
	b.mu.Unlock()
	m.HandleFreed(release)
	if got := fired.get(); !slices.Equal(got, []RequestID{p.ID}) {
		t.Fatalf("after the release's delivery fired %v, want [%v]", got, p.ID)
	}
}

// TestOwnerKeepsUnfiredPayloadRequest: once broadcast, a payload request may
// fire at any replica that enables it. Its owner must therefore not release
// it before it fired there too — here its acquisition fails as the replica
// shuts down, which drains it — or a release that reaches some replicas
// before and others after their enablement splits the group on whether the
// payload was applied.
func TestOwnerKeepsUnfiredPayloadRequest(t *testing.T) {
	b := &diffBus{}
	m := NewManager(0, b, Config{})
	var fired firedLog
	m.SetPayloadHandler(fired.handler)
	x := m.cfg.Mapper.Classes([]string{"x"})

	m.HandleRequestTO(&Request{ID: RequestID{Proc: 1, Seq: 1}, Classes: x}) // holds x
	errc := make(chan error, 1)
	go func() {
		_, err := m.GetLeaseWithPayload(m.cfg.Mapper.Classes([]string{"x"}), "p")
		errc <- err
	}()
	p := takeOAB(t, b)
	m.HandleRequestTO(p)
	m.HandleRequestTO(&Request{ID: RequestID{Proc: 2, Seq: 1}, Classes: x}) // blocks p
	m.Close()
	if err := <-errc; !errors.Is(err, ErrStopped) {
		t.Fatalf("acquisition returned %v, want ErrStopped", err)
	}
	if freedNames(b, p.ID) {
		t.Fatal("owner released its payload request before the payload fired")
	}
}

// TestEarlyReleasedPayloadFires: a release can overtake its request (the URB
// release against the OAB request). An owner releases a payload request only
// after it fired there, so the payload is due here too when the request is
// finally delivered — and before any request that release let through.
func TestEarlyReleasedPayloadFires(t *testing.T) {
	b := &diffBus{}
	m := NewManager(0, b, Config{})
	defer m.Close()
	var fired firedLog
	m.SetPayloadHandler(fired.handler)
	x := m.cfg.Mapper.Classes([]string{"x"})

	p := &Request{ID: RequestID{Proc: 1, Seq: 1}, Classes: x, Payload: "p"}
	q := &Request{ID: RequestID{Proc: 2, Seq: 1}, Classes: x, Payload: "q"}
	m.HandleFreed(&Freed{IDs: []RequestID{p.ID}})
	m.HandleRequestTO(p)
	m.HandleRequestTO(q)
	if got := fired.get(); !slices.Equal(got, []RequestID{p.ID, q.ID}) {
		t.Fatalf("fired %v, want [%v %v]", got, p.ID, q.ID)
	}
}

// TestInstallStateFiresUnresolvedPayloads: a state transfer carries, per
// request, whether its payload was resolved at the sender. A request enabled
// there is in the transferred store and must not fire again; one still queued
// there fires at the joiner when enabled, as at every other replica.
func TestInstallStateFiresUnresolvedPayloads(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})
	var fired [2]firedLog
	for i, m := range ms {
		m.SetPayloadHandler(fired[i].handler)
	}

	id0, err := ms[0].GetLeaseWithPayload(ms[0].cfg.Mapper.Classes([]string{"x"}), "first")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan RequestID, 1)
	go func() {
		id, err := ms[1].GetLeaseWithPayload(ms[1].cfg.Mapper.Classes([]string{"x"}), "second")
		if err != nil {
			t.Errorf("second acquisition: %v", err)
		}
		done <- id
	}()
	waitUntil(t, func() bool {
		b.sync()
		return ms[0].QueueDepth([]string{"x"}) == 2
	})

	joiner := NewManager(7, b.endpoint(7), Config{})
	defer joiner.Close()
	var joined firedLog
	joiner.SetPayloadHandler(joined.handler)
	joiner.InstallState(ms[0].SnapshotState())
	joiner.ConfirmView()
	b.register(7, joiner)
	if got := joined.get(); len(got) != 0 {
		t.Fatalf("joiner re-fired payloads resolved at the sender: %v", got)
	}

	ms[0].Finished(id0)
	var id1 RequestID
	select {
	case id1 = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("transfer stuck")
	}
	b.sync()
	if got := joined.get(); !slices.Equal(got, []RequestID{id1}) {
		t.Fatalf("joiner fired %v, want [%v] (the payload queued at transfer time)", got, id1)
	}
	for i := range fired {
		if got := fired[i].get(); !slices.Equal(got, []RequestID{id0, id1}) {
			t.Fatalf("replica %d fired %v, want [%v %v]", i, got, id0, id1)
		}
	}
}

// TestViewChangePurgeFiresPayloadsAlike: every survivor purges at the same
// point of the delivered history, so the payload requests a purge drops or
// enables are resolved alike everywhere: a departed owner's payload never
// fires, one queued behind a departed owner's lease fires at every survivor —
// but only once the view is confirmed by a delivery in it. A coordinator
// installs a view before its members do; had its purge fired the payload at
// once, a view that no quorum installs would leave the payload applied at the
// coordinator alone.
func TestViewChangePurgeFiresPayloadsAlike(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 4, Config{})
	var fired [4]firedLog
	for i, m := range ms {
		m.SetPayloadHandler(fired[i].handler)
	}

	// Replica 0 holds x and y; replica 1 queues a payload request on x and
	// replica 2 one on y, both behind replica 0.
	getLeaseT(t, ms[0], []string{"x", "y"})
	go func() { _, _ = ms[1].GetLeaseWithPayload(ms[1].cfg.Mapper.Classes([]string{"x"}), "survives") }()
	go func() { _, _ = ms[2].GetLeaseWithPayload(ms[2].cfg.Mapper.Classes([]string{"y"}), "departs") }()
	waitUntil(t, func() bool {
		b.sync()
		return ms[3].QueueDepth([]string{"x"}) == 2 && ms[3].QueueDepth([]string{"y"}) == 2
	})

	// Replicas 0 and 2 leave; the survivors 1 and 3 install the view.
	b.events <- func() {
		for _, i := range []int{1, 3} {
			ms[i].HandleViewChange([]transport.ID{1, 3}, nil)
		}
	}
	b.sync()
	for _, i := range []int{1, 3} {
		if got := fired[i].get(); len(got) != 0 {
			t.Fatalf("survivor %d fired %v before the view was confirmed", i, got)
		}
	}
	b.events <- func() {
		for _, i := range []int{1, 3} {
			ms[i].ConfirmView()
		}
	}
	b.sync()
	want := fired[1].get()
	if len(want) != 1 || want[0].Proc != 1 {
		t.Fatalf("survivor 1 fired %v, want only its own payload", want)
	}
	if got := fired[3].get(); !slices.Equal(got, want) {
		t.Fatalf("survivor 3 fired %v, survivor 1 %v", got, want)
	}
}

// TestReleaseResentAfterEjection: an ejection drops the replica's outbox, so
// a release applied here but not yet delivered may never have left. When the
// replica is back in a primary view with this table (a recovered primary, no
// state transfer), it sends the release again: otherwise the group keeps the
// request for good, and the payloads queued behind it fire only where this
// table is copied.
func TestReleaseResentAfterEjection(t *testing.T) {
	b := &diffBus{}
	m := NewManager(0, b, Config{})
	defer m.Close()

	own := acquireLocal(t, m, b, []string{"x"})
	m.HandleRequestTO(&Request{ID: RequestID{Proc: 1, Seq: 1}, Classes: m.cfg.Mapper.Classes([]string{"x"}), Payload: "p"})
	m.Finished(own) // released here; suppose the ejection drops the broadcast
	m.HandleEjected()
	b.mu.Lock()
	b.freed, b.urb = nil, nil
	b.mu.Unlock()
	m.HandleViewChange([]transport.ID{0, 1}, nil)
	if !freedNames(b, own) {
		t.Fatal("undelivered release not sent again after the ejection")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range b.urb {
		if slices.Contains(f.IDs, own) && !f.Resent {
			t.Fatalf("release %v sent again unmarked", f.IDs)
		}
	}
}

// TestResentReleaseOfDequeuedRequestIsDropped: the releases sent again after
// an ejection include ones that did leave and were applied. A replica that
// already dequeued the request drops the copy instead of buffering it as an
// early release: the request is never delivered again, so the entry would
// stay until the next state transfer. A resent release of a request still
// queued is applied as usual.
func TestResentReleaseOfDequeuedRequestIsDropped(t *testing.T) {
	m := NewManager(1, &diffBus{}, Config{})
	defer m.Close()
	x := m.cfg.Mapper.Classes([]string{"x"})
	done := &Request{ID: RequestID{Proc: 0, Seq: 1}, Classes: x}
	m.HandleRequestTO(done)
	m.HandleFreed(&Freed{IDs: []RequestID{done.ID}})
	queued := &Request{ID: RequestID{Proc: 0, Seq: 2}, Classes: x}
	m.HandleRequestTO(queued)

	m.HandleFreed(&Freed{IDs: []RequestID{done.ID, queued.ID}, Resent: true})
	if n := m.Debug().EarlyFreed; n != 0 {
		t.Fatalf("%d early releases buffered for a duplicate release", n)
	}
	if d := m.QueueDepth([]string{"x"}); d != 0 {
		t.Fatalf("queued request not released by its resent release: depth %d", d)
	}
}
