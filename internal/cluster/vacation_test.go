package cluster

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/vacation"
)

// TestReplicatedVacation runs the STAMP-style reservation mix concurrently
// from every replica and verifies the conservation invariant on each one,
// plus identical write histories (the serializability witness).
func TestReplicatedVacation(t *testing.T) {
	for _, proto := range []core.Protocol{core.ProtocolALC, core.ProtocolCert} {
		t.Run(proto.String(), func(t *testing.T) {
			db := vacation.New(vacation.Config{Resources: 12, Customers: 12, Seed: 7})
			c, err := New(Config{
				N:    3,
				Core: core.Config{Protocol: proto},
				Net:  memnet.Config{Latency: 300 * time.Microsecond},
				GCS:  testGCS(),
				Seed: db.Seed(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var wg sync.WaitGroup
			for i, r := range c.Replicas() {
				wg.Add(1)
				go func(i int, r *core.Replica) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i + 20)))
					for op := 0; op < 25; op++ {
						cust := rng.Intn(db.Customers())
						var err error
						switch rng.Intn(10) {
						case 0:
							fn := db.ReleaseAll(cust)
							err = r.Atomic(func(tx *stm.Txn) error { return fn(tx) })
						case 1:
							fn := db.UpdatePrices(rng.Int63(), 4)
							err = r.Atomic(func(tx *stm.Txn) error { return fn(tx) })
						default:
							kind := []vacation.ResourceKind{
								vacation.Car, vacation.Flight, vacation.Room,
							}[rng.Intn(3)]
							candidates := []int{
								rng.Intn(db.Resources()),
								rng.Intn(db.Resources()),
								rng.Intn(db.Resources()),
							}
							var booked bool
							fn := db.MakeReservation(cust, kind, candidates, &booked)
							err = r.Atomic(func(tx *stm.Txn) error { return fn(tx) })
						}
						if err != nil {
							t.Errorf("replica %d op %d: %v", i, op, err)
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
				t.Fatalf("histories diverge: %s", diff)
			}
			for _, r := range c.Replicas() {
				if err := r.AtomicRO(func(tx *stm.Txn) error { return db.CheckInvariant(tx) }); err != nil {
					t.Fatalf("replica %d: %v", r.ID(), err)
				}
			}
		})
	}
}
