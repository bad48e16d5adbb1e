// TCP cluster: the same replicated STM over real sockets. Three replicas run
// in this process but communicate exclusively through TCP on localhost — the
// exact stack cmd/alc-node deploys across machines (binary wire codec,
// reconnecting links, the full GCS on top).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/tcpnet"
	"github.com/alcstm/alc/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Register everything that crosses the wire.
	gcs.RegisterWire()
	core.RegisterWire()

	// Bind three listeners to learn free ports, then restart with the full
	// address map (as a deployment would configure statically).
	ids := []transport.ID{0, 1, 2}
	addrs := make(map[transport.ID]string, len(ids))
	for _, id := range ids {
		tmp, err := tcpnet.New(tcpnet.Config{
			Self:  id,
			Addrs: map[transport.ID]string{id: "127.0.0.1:0"},
		})
		if err != nil {
			return err
		}
		addrs[id] = tmp.Addr()
		_ = tmp.Close()
	}
	fmt.Printf("replica addresses: %v\n", addrs)

	var replicas []*core.Replica
	for _, id := range ids {
		tr, err := tcpnet.New(tcpnet.Config{Self: id, Addrs: addrs})
		if err != nil {
			return err
		}
		r, err := core.NewReplica(tr, core.Config{
			Protocol: core.ProtocolALC,
			Lease:    lease.Config{OptimisticFree: true},
		}, gcs.Config{Members: ids})
		if err != nil {
			return err
		}
		if err := r.Seed(map[string]stm.Value{"hits": 0}); err != nil {
			return err
		}
		replicas = append(replicas, r)
	}
	defer func() {
		for _, r := range replicas {
			_ = r.Close()
		}
	}()

	for _, r := range replicas {
		if err := r.WaitForView(len(ids), 15*time.Second); err != nil {
			return err
		}
	}
	fmt.Println("view installed on all replicas (over TCP)")

	// Concurrent increments from every replica.
	const perReplica = 10
	var wg sync.WaitGroup
	for i, r := range replicas {
		wg.Add(1)
		go func(i int, r *core.Replica) {
			defer wg.Done()
			for j := 0; j < perReplica; j++ {
				err := r.Atomic(func(tx *stm.Txn) error {
					v, err := tx.Read("hits")
					if err != nil {
						return err
					}
					return tx.Write("hits", v.(int)+1)
				})
				if err != nil {
					log.Printf("replica %d: %v", i, err)
					return
				}
			}
		}(i, r)
	}
	wg.Wait()

	// Wait for convergence, then read from each replica.
	deadline := time.Now().Add(10 * time.Second)
	for {
		vals := make([]int, len(replicas))
		for i, r := range replicas {
			_ = r.AtomicRO(func(tx *stm.Txn) error {
				v, err := tx.Read("hits")
				if err == nil {
					vals[i] = v.(int)
				}
				return err
			})
		}
		if vals[0] == perReplica*len(replicas) && vals[0] == vals[1] && vals[1] == vals[2] {
			fmt.Printf("hits = %v on every replica — %d commits serialized over TCP\n",
				vals[0], perReplica*len(replicas))
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge: %v", vals)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
