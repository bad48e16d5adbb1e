package cluster

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/sortedset"
	"github.com/alcstm/alc/internal/stm"
)

// TestReplicatedSortedSet runs the treap workload concurrently from every
// replica — structural transactions with rotations spanning several boxes —
// and verifies the set agrees with a reference model, the structure's
// invariants hold on every replica, and the per-box write histories are
// identical cluster-wide (the 1-copy serializability witness).
func TestReplicatedSortedSet(t *testing.T) {
	for _, proto := range []core.Protocol{core.ProtocolALC, core.ProtocolCert} {
		t.Run(proto.String(), func(t *testing.T) {
			set := New3ReplicaSet(t, proto)
			c, s := set.c, set.s

			const perReplica = 25
			var (
				mu       sync.Mutex
				inserted = map[int]bool{}
			)
			var wg sync.WaitGroup
			for i, r := range c.Replicas() {
				wg.Add(1)
				go func(i int, r *core.Replica) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i + 1)))
					for j := 0; j < perReplica; j++ {
						key := rng.Intn(200)
						var added bool
						err := r.Atomic(func(tx *stm.Txn) error {
							var err error
							added, err = s.Insert(tx, key)
							return err
						})
						if err != nil {
							t.Errorf("replica %d insert %d: %v", i, key, err)
							return
						}
						_ = added
						mu.Lock()
						inserted[key] = true
						mu.Unlock()
					}
				}(i, r)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if err := c.WaitConverged(15 * time.Second); err != nil {
				t.Fatal(err)
			}
			if diff := c.CheckHistories(); diff != "" {
				t.Fatalf("write histories diverge: %s", diff)
			}

			want := make([]int, 0, len(inserted))
			for k := range inserted {
				want = append(want, k)
			}
			sort.Ints(want)

			for _, r := range c.Replicas() {
				err := r.AtomicRO(func(tx *stm.Txn) error {
					if err := s.CheckInvariants(tx); err != nil {
						return err
					}
					got, err := s.InOrder(tx)
					if err != nil {
						return err
					}
					if len(got) != len(want) {
						t.Errorf("replica %d: %d keys, want %d", r.ID(), len(got), len(want))
						return nil
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("replica %d: key[%d] = %d, want %d", r.ID(), i, got[i], want[i])
							return nil
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("replica %d: %v", r.ID(), err)
				}
			}
		})
	}
}

// TestSortedSetMixedOpsWithDeletes interleaves inserts and deletes across
// replicas and checks only invariants plus convergence (a reference model
// would need cross-replica operation ordering).
func TestSortedSetMixedOpsWithDeletes(t *testing.T) {
	set := New3ReplicaSet(t, core.ProtocolALC)
	c, s := set.c, set.s

	var wg sync.WaitGroup
	for i, r := range c.Replicas() {
		wg.Add(1)
		go func(i int, r *core.Replica) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for j := 0; j < 30; j++ {
				key := rng.Intn(64)
				err := r.Atomic(func(tx *stm.Txn) error {
					if rng.Intn(3) == 0 {
						_, err := s.Delete(tx, key)
						return err
					}
					_, err := s.Insert(tx, key)
					return err
				})
				if err != nil {
					t.Errorf("replica %d: %v", i, err)
					return
				}
			}
		}(i, r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if diff := c.CheckHistories(); diff != "" {
		t.Fatalf("write histories diverge: %s", diff)
	}
	for _, r := range c.Replicas() {
		if err := r.AtomicRO(func(tx *stm.Txn) error { return s.CheckInvariants(tx) }); err != nil {
			t.Fatalf("replica %d invariants: %v", r.ID(), err)
		}
	}
}

// replicatedSet bundles a cluster and a set handle for the tests above.
type replicatedSet struct {
	c *Cluster
	s *sortedset.Set
}

// New3ReplicaSet builds a 3-replica cluster seeded with one sorted set.
func New3ReplicaSet(t *testing.T, proto core.Protocol) *replicatedSet {
	t.Helper()
	s := sortedset.New("it")
	seed := make(map[string]stm.Value)
	for id, v := range s.Seed() {
		seed[id] = v
	}
	c, err := New(Config{
		N:    3,
		Core: core.Config{Protocol: proto},
		Net:  memnet.Config{Latency: 300 * time.Microsecond},
		GCS:  testGCS(),
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &replicatedSet{c: c, s: s}
}
