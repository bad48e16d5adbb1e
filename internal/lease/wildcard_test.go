package lease

import (
	"testing"
	"time"
)

func TestWildcardWaitsForEveryOlderRequest(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	idX := getLeaseT(t, ms[0], []string{"x"})
	idY := getLeaseT(t, ms[0], []string{"y"})

	acquired := make(chan RequestID, 1)
	go func() {
		id, err := ms[1].Establish(RequestID{}, nil, false)
		if err != nil {
			t.Error(err)
			return
		}
		acquired <- id
	}()

	// The wildcard must wait for both held leases.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-acquired:
		t.Fatal("wildcard granted while other leases are held")
	default:
	}

	ms[0].Finished(idX)
	time.Sleep(50 * time.Millisecond)
	select {
	case <-acquired:
		t.Fatal("wildcard granted while one lease is still held")
	default:
	}

	ms[0].Finished(idY)
	var wid RequestID
	select {
	case wid = <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("wildcard never granted")
	}
	b.sync()

	// While the wildcard is enabled, it covers everything.
	if !ms[1].HoldsLease([]string{"anything", "at", "all"}) {
		t.Fatal("enabled wildcard does not cover arbitrary items")
	}
	ms[1].Finished(wid)
}

func TestWildcardBlocksYoungerRequests(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	widCh := make(chan RequestID, 1)
	go func() {
		id, err := ms[0].Establish(RequestID{}, nil, false)
		if err == nil {
			widCh <- id
		}
	}()
	var wid RequestID
	select {
	case wid = <-widCh:
	case <-time.After(5 * time.Second):
		t.Fatal("wildcard acquisition stuck")
	}

	// A normal request from another replica queues behind the wildcard.
	normCh := make(chan RequestID, 1)
	go func() {
		id, err := ms[1].GetLease([]string{"x"})
		if err == nil {
			normCh <- id
		}
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-normCh:
		t.Fatal("normal request granted under an enabled wildcard")
	default:
	}

	ms[0].Finished(wid)
	select {
	case id := <-normCh:
		ms[1].Finished(id)
	case <-time.After(5 * time.Second):
		t.Fatal("normal request stuck after wildcard release")
	}
}

func TestWildcardReplacesHeldLease(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	idX := getLeaseT(t, ms[0], []string{"x"})
	wid, err := ms[0].Establish(idX, nil, false)
	if err != nil {
		t.Fatalf("Establish(wildcard): %v", err)
	}
	b.sync()
	if !ms[0].HoldsLease([]string{"x"}) || !ms[0].HoldsLease([]string{"y"}) {
		t.Fatal("wildcard replacement does not cover")
	}
	// A held wildcard is a universal superset: it is kept for any classes.
	if id, err := ms[0].Establish(wid, ms[0].cfg.Mapper.Classes([]string{"a", "b", "c"}), false); id != wid || err != nil {
		t.Fatalf("Establish over a held wildcard = %v, %v; want it kept", id, err)
	}
	ms[0].Finished(wid)
}

func TestWildcardStateTransferRoundTrip(t *testing.T) {
	b := newBus()
	defer b.close()
	ms := newManagers(t, b, 2, Config{})

	wid, err := ms[0].Establish(RequestID{}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ms[0].Finished(wid)
	b.sync()

	snap := ms[1].SnapshotState()
	if len(snap.Requests) != 1 || !snap.Requests[0].Wildcard {
		t.Fatalf("snapshot = %+v, want the wildcard request", snap.Requests)
	}

	joiner := NewManager(9, b.endpoint(9), Config{})
	defer joiner.Close()
	joiner.InstallState(snap)

	joiner.mu.Lock()
	st := joiner.reqs[wid]
	enabled := st != nil && joiner.enabledLocked(st)
	joiner.mu.Unlock()
	if !enabled {
		t.Fatal("joiner does not see the enabled wildcard")
	}
}
