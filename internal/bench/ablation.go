package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/bloom"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
)

// AblationRow is one named variant of an ablation sweep.
type AblationRow struct {
	Variant string
	Result  Throughput
	// Extra holds sweep-specific data (e.g. the Bloom filter size).
	Extra string
}

// RunAblationOpt quantifies each §4.5 optimization on the high-conflict bank
// workload (constant lease rotation, where the lease-transfer latency is on
// the critical path).
func RunAblationOpt(replicas int, cfg BankConfig) ([]AblationRow, error) {
	variants := []struct {
		name   string
		params Params
	}{
		{"ALC baseline (no optimizations)", Params{
			Protocol: core.ProtocolALC, Replicas: replicas, DisableOptimisticFree: true}},
		{"ALC + opt-delivery freeing (§4.5b)", Params{
			Protocol: core.ProtocolALC, Replicas: replicas}},
		{"ALC + piggybacked certification (§4.5c)", Params{
			Protocol: core.ProtocolALC, Replicas: replicas, DisableOptimisticFree: true, PiggybackCert: true}},
		{"ALC + both (§4.5b+c)", Params{
			Protocol: core.ProtocolALC, Replicas: replicas, PiggybackCert: true}},
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		res, err := RunBank(v.params, BankConfig{
			Mode: bank.HighConflict, Threads: cfg.Threads, Duration: cfg.Duration, Warmup: cfg.Warmup,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ablation-opt %q: %w", v.name, err)
		}
		rows = append(rows, AblationRow{Variant: v.name, Result: res})
	}
	return rows, nil
}

// RunAblationCC sweeps the conflict-class granularity (§4.2's trade-off) on
// the no-conflict bank workload: with few classes, disjoint data items map
// to shared classes (false sharing) and leases rotate although transactions
// never truly conflict.
func RunAblationCC(replicas int, classes []int, cfg BankConfig) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(classes))
	for _, cc := range classes {
		name := fmt.Sprintf("%d classes", cc)
		if cc == 0 {
			name = "one class per item (paper setting)"
		}
		res, err := RunBank(Params{
			Protocol: core.ProtocolALC, Replicas: replicas, ConflictClasses: cc, PiggybackCert: true,
		}, BankConfig{
			Mode: bank.NoConflict, Threads: cfg.Threads, Duration: cfg.Duration, Warmup: cfg.Warmup,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ablation-cc %d: %w", cc, err)
		}
		rows = append(rows, AblationRow{Variant: name, Result: res})
	}
	return rows, nil
}

// RunAblationBloom reproduces D2STM's size/abort-rate trade-off: a read-heavy
// workload with no true conflicts, where every abort is a Bloom false
// positive. Sweeps the target false-positive rate and reports the observed
// spurious abort rate and the encoded read-set size.
func RunAblationBloom(replicas int, fpRates []float64, duration time.Duration) ([]AblationRow, error) {
	if duration <= 0 {
		duration = time.Second
	}
	const (
		accounts    = 256
		readsPerTxn = 20
	)
	seed := make(map[string]stm.Value, accounts+replicas)
	for i := 0; i < accounts; i++ {
		seed[fmt.Sprintf("pool:%03d", i)] = i
	}
	for i := 0; i < replicas; i++ {
		seed[fmt.Sprintf("own:%d", i)] = 0
	}

	rows := make([]AblationRow, 0, len(fpRates))
	for _, fp := range fpRates {
		p := Params{Protocol: core.ProtocolCert, Replicas: replicas, BloomFPRate: fp}
		c, err := NewCluster(p, seed)
		if err != nil {
			return nil, err
		}

		stop := make(chan struct{})
		errs := make(chan error, replicas)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i, r := range c.Replicas() {
				go func(i int, r *core.Replica) {
					rng := rand.New(rand.NewSource(int64(i + 1)))
					own := fmt.Sprintf("own:%d", i)
					for {
						select {
						case <-stop:
							errs <- nil
							return
						default:
						}
						err := r.Atomic(func(tx *stm.Txn) error {
							sum := 0
							for k := 0; k < readsPerTxn; k++ {
								v, err := tx.Read(fmt.Sprintf("pool:%03d", rng.Intn(accounts)))
								if err != nil {
									return err
								}
								sum += v.(int)
							}
							return tx.Write(own, sum)
						})
						if err != nil {
							errs <- err
							return
						}
					}
				}(i, r)
			}
		}()

		start := time.Now()
		time.Sleep(duration)
		close(stop)
		<-done
		for i := 0; i < replicas; i++ {
			if err := <-errs; err != nil {
				c.Close()
				return nil, err
			}
		}
		res := summarize(p, c, time.Since(start))
		c.Close()

		name := fmt.Sprintf("bloom fp=%.3f", fp)
		size := "exact read-set"
		if fp > 0 {
			f := bloom.NewWithFPRate(readsPerTxn+1, fp)
			size = fmt.Sprintf("%d B/readset", f.SizeBytes()+16)
		} else {
			name = "exact (no bloom)"
			size = fmt.Sprintf("~%d B/readset", readsPerTxn*9)
		}
		rows = append(rows, AblationRow{Variant: name, Result: res, Extra: size})
	}
	return rows, nil
}

// RunAblationBatch characterizes group-commit batching and the parallel apply
// stage on the sharded high-throughput bank: every replica hosts many
// concurrent committers on disjoint conflict classes, the regime where the
// coalescer amortizes one URB message (and its receiver-side admission cost)
// over many commits. The second variant pins the apply pool to one worker to
// isolate the parallel-apply share.
func RunAblationBatch(replicas int, cfg BankConfig) ([]AblationRow, error) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 32
	}
	variants := []struct {
		name   string
		params Params
	}{
		{"batched (group commit + parallel apply)", Params{
			Protocol: core.ProtocolALC, Replicas: replicas}},
		{"batched, single apply worker", Params{
			Protocol: core.ProtocolALC, Replicas: replicas,
			Batch: core.BatchConfig{ApplyWorkers: 1}}},
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		applyCeiling(&v.params, cfg.ABCeiling)
		res, err := RunBank(v.params, BankConfig{
			Sharded: true, Threads: threads, Duration: cfg.Duration, Warmup: cfg.Warmup,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ablation-batch %q: %w", v.name, err)
		}
		rows = append(rows, AblationRow{Variant: v.name, Result: res, Extra: res.Batch.String()})
	}
	return rows, nil
}

// RunAblationLocality quantifies the paper's §6 locality-aware routing idea
// on the high-conflict bank: when every thread submits its transfers to the
// rendezvous-preferred owner of the shared accounts, the lease never
// rotates and every commit takes the zero-communication reuse path.
func RunAblationLocality(replicas int, duration time.Duration) ([]AblationRow, error) {
	if duration <= 0 {
		duration = time.Second
	}
	run := func(routed bool) (Throughput, error) {
		p := Params{Protocol: core.ProtocolALC, Replicas: replicas, PiggybackCert: true}
		w := bank.New(replicas, bank.HighConflict)
		c, err := NewCluster(p, w.Seed())
		if err != nil {
			return Throughput{}, err
		}
		defer c.Close()

		items := []string{bank.AccountID(0), bank.AccountID(1)}
		var (
			wg   sync.WaitGroup
			stop = make(chan struct{})
			errs = make(chan error, replicas)
		)
		for i, r := range c.Replicas() {
			wg.Add(1)
			go func(i int, own *core.Replica) {
				defer wg.Done()
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					target := own
					if routed {
						target = c.Preferred(items)
					}
					if err := target.Atomic(w.Transfer(i, round)); err != nil {
						errs <- err
						return
					}
				}
			}(i, r)
		}
		start := time.Now()
		time.Sleep(duration)
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			return Throughput{}, err
		}
		return summarize(p, c, time.Since(start)), nil
	}

	local, err := run(false)
	if err != nil {
		return nil, err
	}
	routed, err := run(true)
	if err != nil {
		return nil, err
	}
	return []AblationRow{
		{Variant: "own-replica submission (lease rotates every commit)", Result: local},
		{Variant: "locality-routed submission (§6: lease stays resident)", Result: routed,
			Extra: fmt.Sprintf("reuse rate %.0f%%", 100*routed.LeaseReuseRate)},
	}, nil
}
