package alc_test

import (
	"errors"
	"testing"
	"time"

	alc "github.com/alcstm/alc"
)

func TestTypedBoxes(t *testing.T) {
	c := newTestCluster(t, alc.Config{Replicas: 2})
	if err := c.Seed(map[string]alc.Value{
		"n": 10, "s": "hello", "b": true, "raw": []byte{1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	var (
		n   = alc.IntBox("n")
		s   = alc.StringBox("s")
		b   = alc.BoolBox("b")
		raw = alc.BytesBox("raw")
	)

	err := c.Replica(0).Atomic(func(tx *alc.Tx) error {
		if got, err := n.Add(tx, 5); err != nil || got != 15 {
			t.Errorf("Add = %d, %v", got, err)
		}
		if got, err := s.Get(tx); err != nil || got != "hello" {
			t.Errorf("StringBox.Get = %q, %v", got, err)
		}
		if err := s.Set(tx, "world"); err != nil {
			t.Error(err)
		}
		if got, err := b.Get(tx); err != nil || !got {
			t.Errorf("BoolBox.Get = %t, %v", got, err)
		}
		if err := b.Set(tx, false); err != nil {
			t.Error(err)
		}
		if got, err := raw.Get(tx); err != nil || len(got) != 3 {
			t.Errorf("BytesBox.Get = %v, %v", got, err)
		}
		return raw.Set(tx, []byte{9})
	})
	if err != nil {
		t.Fatal(err)
	}

	err = c.Replica(0).AtomicRO(func(tx *alc.Tx) error {
		if got, _ := n.Get(tx); got != 15 {
			t.Errorf("n = %d, want 15", got)
		}
		if got, _ := s.Get(tx); got != "world" {
			t.Errorf("s = %q, want world", got)
		}
		if got, _ := b.Get(tx); got {
			t.Error("b still true")
		}
		if got, _ := raw.Get(tx); len(got) != 1 || got[0] != 9 {
			t.Errorf("raw = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedBoxTypeErrors(t *testing.T) {
	c := newTestCluster(t, alc.Config{Replicas: 2})
	if err := c.Seed(map[string]alc.Value{"n": 10}); err != nil {
		t.Fatal(err)
	}
	err := c.Replica(0).AtomicRO(func(tx *alc.Tx) error {
		var te *alc.TypeError
		if _, err := alc.StringBox("n").Get(tx); !errors.As(err, &te) {
			t.Errorf("StringBox on int = %v, want TypeError", err)
		}
		if _, err := alc.BoolBox("n").Get(tx); !errors.As(err, &te) {
			t.Errorf("BoolBox on int = %v, want TypeError", err)
		}
		if _, err := alc.BytesBox("n").Get(tx); !errors.As(err, &te) {
			t.Errorf("BytesBox on int = %v, want TypeError", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPreferredReplicaStableAndEffective(t *testing.T) {
	c := newTestCluster(t, alc.Config{Replicas: 3})
	if err := c.Seed(map[string]alc.Value{"hot": 0}); err != nil {
		t.Fatal(err)
	}

	// Deterministic and stable mapping.
	first := c.PreferredReplica("hot")
	if first == nil {
		t.Fatal("no preferred replica")
	}
	for i := 0; i < 10; i++ {
		if got := c.PreferredReplica("hot"); got.ID() != first.ID() {
			t.Fatalf("PreferredReplica not stable: %d vs %d", got.ID(), first.ID())
		}
	}
	// Different item families spread across replicas (not all on one).
	seen := map[int]bool{}
	for _, item := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		seen[c.PreferredReplica(item).ID()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("rendezvous mapping degenerate: all items on one replica")
	}

	// Routing through the preferred replica keeps the lease resident.
	hot := alc.IntBox("hot")
	for i := 0; i < 10; i++ {
		err := c.PreferredReplica("hot").Atomic(func(tx *alc.Tx) error {
			_, err := hot.Add(tx, 1)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s := first.Stats()
	if s.Commits != 10 {
		t.Fatalf("preferred replica committed %d, want 10", s.Commits)
	}
	if s.LeaseRequests != 1 {
		t.Fatalf("lease requested %d times, want 1 (resident lease)", s.LeaseRequests)
	}

	// The mapping survives the preferred replica's crash: a new owner takes
	// over deterministically.
	c.Crash(first.ID())
	deadline := time.Now().Add(10 * time.Second)
	for {
		next := c.PreferredReplica("hot")
		if next != nil && next.ID() != first.ID() {
			// Commit through the new owner once the view settles.
			err := next.Atomic(func(tx *alc.Tx) error {
				_, err := hot.Add(tx, 1)
				return err
			})
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("failover of the preferred replica never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
