package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/lee"
	"github.com/alcstm/alc/internal/stm"
)

// LeeConfig parametrizes the Figure 4 experiments.
type LeeConfig struct {
	Board lee.GenConfig
	// WorkPerRead models the original benchmark's per-cell expansion cost
	// (see lee.Board.WorkPerRead). Default 3µs: board-spanning routes take
	// ~10ms of compute, short ones stay under a millisecond.
	WorkPerRead time.Duration
	// Workers is the number of routing threads per replica (the paper used
	// one; the transaction heterogeneity, not intra-replica parallelism, is
	// the object of study).
	Workers int
}

// LeeResult is one measured Lee-TM run.
type LeeResult struct {
	Params Params
	// OrderInterval is the sequencer pacing the run used (0 = native).
	OrderInterval time.Duration
	Elapsed       time.Duration
	Routed        int
	Failed        int // unroutable in their final snapshot
	Aborts        int64
	AbortRate     float64
	// AtMostOnce is the fraction of committed transactions aborted at most
	// once (§5 reports 98% under ALC).
	AtMostOnce float64
	// LongestPath and CellsRead document workload heterogeneity.
	LongestPath  int
	MaxCellsRead int
}

// RunLee routes one synthetic board on a fresh cluster: the netlist is
// partitioned round-robin across replicas and the makespan (time to route
// every net) is measured — Figure 4's metric.
func RunLee(p Params, cfg LeeConfig) (LeeResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.WorkPerRead == 0 {
		cfg.WorkPerRead = 100 * time.Microsecond
	}
	board := lee.Generate(cfg.Board)
	board.WorkPerRead = cfg.WorkPerRead
	c, err := NewCluster(p, board.Seed())
	if err != nil {
		return LeeResult{}, err
	}
	defer c.Close()

	var (
		mu           sync.Mutex
		routed       int
		failed       int
		longestPath  int
		maxCellsRead int
	)
	record := func(res *lee.RouteResult, err error) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			routed++
			if res.Len() > longestPath {
				longestPath = res.Len()
			}
			if res.CellsRead > maxCellsRead {
				maxCellsRead = res.CellsRead
			}
		case errors.Is(err, lee.ErrUnroutable):
			failed++
		default:
			return err
		}
		return nil
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, p.Replicas*cfg.Workers)
	reps := c.Replicas()
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *core.Replica) {
			defer wg.Done()
			// Round-robin partition of the netlist.
			work := make(chan lee.Net, len(board.Nets))
			for j := i; j < len(board.Nets); j += len(reps) {
				work <- board.Nets[j]
			}
			close(work)

			var inner sync.WaitGroup
			for w := 0; w < cfg.Workers; w++ {
				inner.Add(1)
				go func() {
					defer inner.Done()
					for net := range work {
						var res lee.RouteResult
						routeFn := board.RouteTxn(net, &res)
						err := r.Atomic(func(tx *stm.Txn) error { return routeFn(tx) })
						if rerr := record(&res, err); rerr != nil {
							errCh <- fmt.Errorf("replica %d net %d: %w", i, net.ID, rerr)
							return
						}
					}
				}()
			}
			inner.Wait()
		}(i, r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return LeeResult{}, err
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		return LeeResult{}, err
	}

	t := summarize(c, elapsed, counts{})
	res := LeeResult{
		Params:       p,
		Elapsed:      elapsed,
		Routed:       routed,
		Failed:       failed,
		Aborts:       t.Aborts,
		AbortRate:    t.AbortRate,
		AtMostOnce:   t.AtMostOnce,
		LongestPath:  longestPath,
		MaxCellsRead: maxCellsRead,
	}
	res.OrderInterval = t.OrderInterval
	return res, nil
}

// Fig4Row is one row of Figure 4: both protocols routing the same board at
// one cluster size.
type Fig4Row struct {
	Replicas int
	ALC      LeeResult
	Cert     LeeResult
}

// Speedup returns time(CERT)/time(ALC), the Figure 4(a) metric.
func (r Fig4Row) Speedup() float64 {
	if r.ALC.Elapsed == 0 {
		return 0
	}
	return float64(r.Cert.Elapsed) / float64(r.ALC.Elapsed)
}

// RunFig4 sweeps cluster sizes over the same synthetic board for both
// protocols, producing Figure 4(a) (speed-up) and 4(b) (abort rate).
func RunFig4(base Params, replicaCounts []int, cfg LeeConfig) (Fig4Rows, error) {
	rows := make(Fig4Rows, 0, len(replicaCounts))
	for _, n := range replicaCounts {
		alcParams, certParams := base, base
		alcParams.Protocol, alcParams.Replicas = core.ProtocolALC, n
		alcParams.DeadlockDetection = true
		certParams.Protocol, certParams.Replicas = core.ProtocolCert, n
		alc, err := RunLee(alcParams, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 ALC n=%d: %w", n, err)
		}
		cert, err := RunLee(certParams, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 CERT n=%d: %w", n, err)
		}
		rows = append(rows, Fig4Row{Replicas: n, ALC: alc, Cert: cert})
	}
	return rows, nil
}
