package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// newTestGroup starts n replicas of one group over an in-memory network,
// seeded identically, and waits for the full view.
func newTestGroup(t *testing.T, n int, netCfg memnet.Config, seed map[string]stm.Value) []*Replica {
	t.Helper()
	net := memnet.New(netCfg)
	members := make([]transport.ID, n)
	for i := range members {
		members[i] = transport.ID(i)
	}
	rs := make([]*Replica, n)
	t.Cleanup(func() {
		for _, r := range rs {
			if r != nil {
				_ = r.Close()
			}
		}
		net.Close()
	})
	for i := range rs {
		tr, err := net.Endpoint(members[i])
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplica(tr, Config{}, gcs.Config{
			Members:           members,
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      5 * time.Second,
			Tick:              5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Seed(seed); err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	for _, r := range rs {
		if err := r.WaitForView(n, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func incrementBox(box string) func(*stm.Txn) error {
	return func(tx *stm.Txn) error {
		v, err := tx.Read(box)
		if err != nil {
			return err
		}
		return tx.Write(box, v.(int)+1)
	}
}

// waitSameStores waits until every replica holds the same store image.
func waitSameStores(t *testing.T, rs []*Replica) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ref := rs[0].Store().Snapshot().Boxes
		same := true
		for _, r := range rs[1:] {
			if !reflect.DeepEqual(r.Store().Snapshot().Boxes, ref) {
				same = false
				break
			}
		}
		if same {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stores did not converge")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// toLane returns a replica's retained TO-lane entries: ordinal → transaction.
func toLane(t *testing.T, r *Replica) map[int64]stm.TxnID {
	t.Helper()
	r.dur.mu.Lock()
	defer r.dur.mu.Unlock()
	out := make(map[int64]stm.TxnID)
	for i := range r.dur.applied.win.len() {
		e, err := r.dur.applied.win.entry(i)
		if err != nil {
			t.Fatalf("replica %d: retained entry %d: %v", r.ID(), i, err)
		}
		if e.Ord > 0 {
			out[e.Ord] = e.TxnID
		}
	}
	return out
}

// TestPayloadOrdinalsAgreeAcrossReplicas: a §4.5(c) piggybacked commit is
// applied where its lease request is enabled, and unrelated requests are
// enabled in a different order at different replicas (their releases are only
// causally ordered). The durability tier's TO-lane ordinal must still name the
// same transaction everywhere — the delta filter, the eviction watermark and
// the advertised frontier all compare it across replicas. An ordinal taken
// from a local counter at enablement named different transactions on
// different replicas.
func TestPayloadOrdinalsAgreeAcrossReplicas(t *testing.T) {
	const (
		keys = 8
		each = 200
	)
	seed := make(map[string]stm.Value, keys)
	for k := 0; k < keys; k++ {
		seed[fmt.Sprintf("k%d", k)] = 0
	}
	rs := newTestGroup(t, 3, memnet.Config{Latency: 300 * time.Microsecond, Jitter: 300 * time.Microsecond}, seed)

	var wg sync.WaitGroup
	for i, r := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < each; n++ {
				if err := r.Atomic(incrementBox(fmt.Sprintf("k%d", rng.Intn(keys)))); err != nil {
					t.Errorf("replica %d: %v", r.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitSameStores(t, rs)

	want := toLane(t, rs[0])
	if len(want) == 0 {
		t.Fatal("no commit took the lease-miss path")
	}
	for _, r := range rs[1:] {
		got := toLane(t, r)
		bad := 0
		for ord, id := range want {
			if got[ord] != id {
				bad++
			}
		}
		if bad > 0 || len(got) != len(want) {
			t.Errorf("replica %d: %d of %d TO-lane ordinals name another transaction than on replica 0 (%d entries here)",
				r.ID(), bad, len(want), len(got))
		}
	}
}

// TestJoinedTransactionWaitsForPayload: a local transaction that joins a
// payload request still in flight (Establish's join) wakes when the request
// is held. If that were at enablement, before the payload is applied here,
// it could validate against a store still missing the payload and commit a
// lost update. The hook widens the window between enablement and apply on
// every replica.
func TestJoinedTransactionWaitsForPayload(t *testing.T) {
	const (
		threads = 8
		each    = 40
	)
	payloadHook = func(transport.ID) { time.Sleep(2 * time.Millisecond) }
	t.Cleanup(func() { payloadHook = nil })
	rs := newTestGroup(t, 3, memnet.Config{Latency: 200 * time.Microsecond}, map[string]stm.Value{"counter": 0})

	var wg sync.WaitGroup
	for _, r := range rs {
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < each; n++ {
					if err := r.Atomic(incrementBox("counter")); err != nil {
						t.Errorf("replica %d: %v", r.ID(), err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	waitSameStores(t, rs)
	var piggybacked int64
	for _, r := range rs {
		piggybacked += r.Stats().Piggybacked
		err := r.AtomicRO(func(tx *stm.Txn) error {
			v, err := tx.Read("counter")
			if err == nil && v != len(rs)*threads*each {
				err = fmt.Errorf("counter = %v, want %d (lost update)", v, len(rs)*threads*each)
			}
			return err
		})
		if err != nil {
			t.Errorf("replica %d: %v", r.ID(), err)
		}
	}
	if piggybacked == 0 {
		t.Fatal("no commit took the lease-miss path")
	}
}
