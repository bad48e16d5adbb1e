package bench

import (
	"fmt"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
)

// BankConfig parametrizes the Figure 3 experiments.
type BankConfig struct {
	Mode bank.Mode
	// Threads is the number of application threads per replica. The paper's
	// degree of concurrency equals the number of replicas, i.e. one thread
	// per replica; more threads add intra-replica contention.
	Threads int
	// Duration is the measured interval per cell.
	Duration time.Duration
	// Warmup precedes measurement (lease establishment, JIT-free in Go but
	// queues fill).
	Warmup time.Duration
	// Sharded gives every (replica, thread) pair its own disjoint account
	// pair (instead of the per-replica fragments of the paper's NoConflict
	// mode), so one replica hosts Threads concurrent non-conflicting
	// committers — the regime where group-commit batching pays. Implies
	// NoConflict; Mode is ignored.
	Sharded bool
}

func (c *BankConfig) fillDefaults() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * time.Millisecond
	}
}

// RunBank measures one Figure 3 cell: the bank workload on a fresh cluster.
func RunBank(p Params, cfg BankConfig) (Throughput, error) {
	cfg.fillDefaults()
	var wl *bank.Workload
	if cfg.Sharded {
		wl = bank.NewSharded(p.Replicas, cfg.Threads)
	} else {
		wl = bank.New(p.Replicas, cfg.Mode)
	}
	c, err := NewCluster(p, wl.Seed())
	if err != nil {
		return Throughput{}, err
	}
	defer c.Close()

	reps := c.Replicas()
	out, err := drive(c, p.Replicas*cfg.Threads, cfg.Warmup, cfg.Duration, func(w int) func(int) error {
		i, th := w/cfg.Threads, w%cfg.Threads
		return func(round int) error {
			body := wl.Transfer(i, round)
			if cfg.Sharded {
				body = wl.TransferAt(i, th, round)
			}
			return reps[i].Atomic(body)
		}
	})
	if err != nil {
		return Throughput{}, err
	}

	// Verify the money-conservation invariant on every replica.
	if err := c.WaitConverged(10 * time.Second); err != nil {
		return Throughput{}, err
	}
	for _, r := range reps {
		if err := r.AtomicRO(func(tx *stm.Txn) error { return wl.CheckInvariant(tx) }); err != nil {
			return Throughput{}, err
		}
	}
	return out, nil
}

// Fig3Row is one row of Figure 3: both protocols at one cluster size.
type Fig3Row struct {
	Replicas int
	ALC      Throughput
	Cert     Throughput
}

// SpeedupALC returns ALC throughput over CERT throughput.
func (r Fig3Row) SpeedupALC() float64 {
	if r.Cert.CommitsPerSec == 0 {
		return 0
	}
	return r.ALC.CommitsPerSec / r.Cert.CommitsPerSec
}

// RunFig3 sweeps cluster sizes for one bank mode, producing Figure 3(a)
// (NoConflict) or Figure 3(b) (HighConflict).
func RunFig3(base Params, replicaCounts []int, mode bank.Mode, cfg BankConfig) (Fig3Rows, error) {
	cfg.Mode = mode
	rows := make(Fig3Rows, 0, len(replicaCounts))
	for _, n := range replicaCounts {
		alcParams, certParams := base, base
		alcParams.Protocol, alcParams.Replicas = core.ProtocolALC, n
		certParams.Protocol, certParams.Replicas = core.ProtocolCert, n
		alc, err := RunBank(alcParams, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig3 ALC n=%d: %w", n, err)
		}
		cert, err := RunBank(certParams, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: fig3 CERT n=%d: %w", n, err)
		}
		rows = append(rows, Fig3Row{Replicas: n, ALC: alc, Cert: cert})
	}
	return rows, nil
}
