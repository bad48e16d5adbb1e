// Lee: transactional circuit routing on a replicated STM — the paper's §5
// Lee-TM workload (Figure 4) as a runnable demo. Each net is routed inside
// one transaction: the breadth-first expansion reads grid cells, the
// backtrace writes the path; transactions span from a handful of cells to
// thousands, and ALC's retained leases shelter the long ones from being
// repeatedly aborted by the short ones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	alc "github.com/alcstm/alc"
	"github.com/alcstm/alc/internal/lee"
)

func main() {
	var (
		replicas = flag.Int("replicas", 3, "cluster size")
		size     = flag.Int("grid", 32, "board dimension")
		nets     = flag.Int("nets", 24, "number of nets to route")
		seed     = flag.Int64("seed", 42, "board generator seed")
		protocol = flag.String("protocol", "alc", "alc or cert")
	)
	flag.Parse()

	proto := alc.ALC
	if *protocol == "cert" {
		proto = alc.CERT
	}
	board := lee.Generate(lee.GenConfig{W: *size, H: *size, Nets: *nets, Seed: *seed})

	cluster, err := alc.NewCluster(alc.Config{
		Replicas:          *replicas,
		Protocol:          proto,
		DeadlockDetection: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Seed(board.Seed()); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("lee: routing %d nets on a %dx%dx%d board across %d replicas (%s)\n",
		len(board.Nets), board.W, board.H, board.Layers, *replicas, proto)

	var (
		mu      sync.Mutex
		routed  int
		blocked int
		wg      sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < *replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := cluster.Replica(i)
			for j := i; j < len(board.Nets); j += *replicas {
				net := board.Nets[j]
				var res lee.RouteResult
				err := r.Atomic(func(tx *alc.Tx) error {
					return board.RouteTxn(net, &res)(tx)
				})
				mu.Lock()
				switch {
				case err == nil:
					routed++
					fmt.Printf("  replica %d routed net %2d: %3d cells (read %4d)\n",
						i, net.ID, res.Len(), res.CellsRead)
				case errors.Is(err, lee.ErrUnroutable):
					blocked++
					fmt.Printf("  replica %d: net %2d unroutable\n", i, net.ID)
				default:
					mu.Unlock()
					log.Fatalf("replica %d net %d: %v", i, net.ID, err)
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	st := cluster.Stats()
	fmt.Printf("routed %d/%d nets in %v  (aborts %d, abort rate %.1f%%)\n",
		routed, routed+blocked, elapsed.Round(time.Millisecond), st.Aborts, 100*st.AbortRate())
}
