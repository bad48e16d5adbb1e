// Vacation: a STAMP-style travel-reservation system on the replicated STM.
// Replicas concurrently book the cheapest available cars, flights and rooms,
// cancel customers and re-price tables; the conservation invariant (capacity
// = available + reserved) is audited on every replica at the end.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	alc "github.com/alcstm/alc"
	"github.com/alcstm/alc/internal/vacation"
)

func main() {
	var (
		replicas = flag.Int("replicas", 3, "cluster size")
		ops      = flag.Int("ops", 40, "operations per replica")
	)
	flag.Parse()

	db := vacation.New(vacation.Config{Resources: 16, Customers: 24, Seed: 4})
	cluster, err := alc.NewCluster(alc.Config{Replicas: *replicas})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Seed(db.Seed()); err != nil {
		log.Fatal(err)
	}

	kinds := []vacation.ResourceKind{vacation.Car, vacation.Flight, vacation.Room}
	var (
		mu       sync.Mutex
		booked   int
		soldOut  int
		releases int
	)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := cluster.Replica(i)
			rng := rand.New(rand.NewSource(int64(i + 1)))
			for op := 0; op < *ops; op++ {
				cust := rng.Intn(db.Customers())
				switch rng.Intn(8) {
				case 0:
					fn := db.ReleaseAll(cust)
					if err := r.Atomic(func(tx *alc.Tx) error { return fn(tx) }); err != nil {
						log.Fatalf("replica %d release: %v", i, err)
					}
					mu.Lock()
					releases++
					mu.Unlock()
				default:
					kind := kinds[rng.Intn(3)]
					candidates := []int{
						rng.Intn(db.Resources()), rng.Intn(db.Resources()), rng.Intn(db.Resources()),
					}
					var ok bool
					fn := db.MakeReservation(cust, kind, candidates, &ok)
					if err := r.Atomic(func(tx *alc.Tx) error { return fn(tx) }); err != nil {
						log.Fatalf("replica %d reserve: %v", i, err)
					}
					mu.Lock()
					if ok {
						booked++
					} else {
						soldOut++
					}
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < *replicas; i++ {
		err := cluster.Replica(i).AtomicRO(func(tx *alc.Tx) error {
			return db.CheckInvariant(tx)
		})
		if err != nil {
			log.Fatalf("replica %d invariant: %v", i, err)
		}
	}
	st := cluster.Stats()
	fmt.Printf("vacation: %d bookings, %d sold-out probes, %d cancellations in %v\n",
		booked, soldOut, releases, elapsed.Round(time.Millisecond))
	fmt.Printf("conservation invariant holds on all %d replicas (%d commits, %.1f%% aborts)\n",
		*replicas, st.Commits, 100*st.AbortRate())
}
