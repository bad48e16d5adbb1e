// Command lee-route runs the transactional Lee router on a generated board
// over a replicated cluster and renders the result as ASCII art — a visual
// way to watch the replicated STM do real work.
//
//	lee-route -grid 24 -nets 14 -replicas 3
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	alc "github.com/alcstm/alc"
	"github.com/alcstm/alc/internal/lee"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lee-route:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		replicas = flag.Int("replicas", 3, "cluster size")
		grid     = flag.Int("grid", 24, "board dimension")
		nets     = flag.Int("nets", 14, "net count")
		seed     = flag.Int64("seed", 7, "board seed")
	)
	flag.Parse()

	board := lee.Generate(lee.GenConfig{W: *grid, H: *grid, Nets: *nets, Seed: *seed})

	cluster, err := alc.NewCluster(alc.Config{
		Replicas:          *replicas,
		DeadlockDetection: true,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	if err := cluster.Seed(board.Seed()); err != nil {
		return err
	}

	var (
		mu     sync.Mutex
		routed int
	)
	start := time.Now()
	var wg sync.WaitGroup
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
				if err == nil {
					mu.Lock()
					routed++
					mu.Unlock()
				} else if !errors.Is(err, lee.ErrUnroutable) {
					fmt.Fprintf(os.Stderr, "net %d: %v\n", net.ID, err)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := cluster.WaitConverged(10 * time.Second); err != nil {
		return err
	}

	// Render layer 0 from replica 0's snapshot.
	if err := render(cluster.Replica(0), board); err != nil {
		return err
	}
	fmt.Printf("routed %d/%d nets across %d replicas in %v\n",
		routed, len(board.Nets), *replicas, elapsed.Round(time.Millisecond))
	return nil
}

func render(r *alc.Replica, board *lee.Board) error {
	glyph := func(v int) byte {
		switch {
		case v == lee.Obstacle:
			return '#'
		case v == lee.Free:
			return '.'
		default:
			return byte('A' + (v-1)%26)
		}
	}
	return r.AtomicRO(func(tx *alc.Tx) error {
		for z := 0; z < board.Layers; z++ {
			fmt.Printf("layer %d:\n", z)
			for y := 0; y < board.H; y++ {
				line := make([]byte, board.W)
				for x := 0; x < board.W; x++ {
					v, err := tx.Read(lee.CellID(z, y, x))
					if err != nil {
						return err
					}
					line[x] = glyph(v.(int))
				}
				fmt.Printf("  %s\n", line)
			}
		}
		return nil
	})
}
