package bench

import (
	"fmt"
	"math/rand"
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
func RunAblationOpt(base Params, cfg BankConfig) (AblationRows, error) {
	cfg.Mode = bank.HighConflict
	base.Protocol = core.ProtocolALC
	variants := []struct {
		name                 string
		noOptFree, piggyback bool
	}{
		{"ALC baseline (no optimizations)", true, false},
		{"ALC + opt-delivery freeing (§4.5b)", false, false},
		{"ALC + piggybacked certification (§4.5c)", true, true},
		{"ALC + both (§4.5b+c)", false, true},
	}
	rows := make(AblationRows, 0, len(variants))
	for _, v := range variants {
		p := base
		p.DisableOptimisticFree, p.DisablePiggybackCert = v.noOptFree, !v.piggyback
		res, err := RunBank(p, cfg)
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
func RunAblationCC(base Params, classes []int, cfg BankConfig) (AblationRows, error) {
	cfg.Mode = bank.NoConflict
	base.Protocol = core.ProtocolALC
	rows := make(AblationRows, 0, len(classes))
	for _, cc := range classes {
		name := fmt.Sprintf("%d classes", cc)
		if cc == 0 {
			name = "one class per item (paper setting)"
		}
		p := base
		p.ConflictClasses = cc
		res, err := RunBank(p, cfg)
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
func RunAblationBloom(base Params, fpRates []float64, duration time.Duration) (AblationRows, error) {
	if duration <= 0 {
		duration = time.Second
	}
	replicas := base.Replicas
	base.Protocol = core.ProtocolCert
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

	rows := make(AblationRows, 0, len(fpRates))
	for _, fp := range fpRates {
		p := base
		p.BloomFPRate = fp
		c, err := NewCluster(p, seed)
		if err != nil {
			return nil, err
		}

		reps := c.Replicas()
		res, err := drive(c, replicas, 0, duration, func(i int) func(int) error {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			own := fmt.Sprintf("own:%d", i)
			return func(int) error {
				return reps[i].Atomic(func(tx *stm.Txn) error {
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
			}
		})
		c.Close()
		if err != nil {
			return nil, err
		}

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

// RunAblationBatch characterizes group-commit batching on the sharded
// high-throughput bank: every replica hosts many concurrent committers on
// disjoint conflict classes, the regime where the coalescer amortizes one URB
// message (and its receiver-side admission cost) over many commits. Its one
// row reports commits/s and the batch shapes that produced them.
func RunAblationBatch(base Params, cfg BankConfig) (AblationRows, error) {
	cfg.Sharded = true
	if cfg.Threads <= 0 {
		cfg.Threads = 32
	}
	base.Protocol = core.ProtocolALC
	const name = "batched (group commit)"
	res, err := RunBank(base, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: ablation-batch %q: %w", name, err)
	}
	return AblationRows{{Variant: name, Result: res, Extra: res.Batch.String()}}, nil
}

// RunAblationLocality quantifies the paper's §6 locality-aware routing idea
// on the high-conflict bank: when every thread submits its transfers to the
// rendezvous-preferred owner of the shared accounts, the lease never
// rotates and every commit takes the zero-communication reuse path.
func RunAblationLocality(base Params, duration time.Duration) (AblationRows, error) {
	if duration <= 0 {
		duration = time.Second
	}
	replicas := base.Replicas
	base.Protocol = core.ProtocolALC
	run := func(routed bool) (Throughput, error) {
		w := bank.New(replicas, bank.HighConflict)
		c, err := NewCluster(base, w.Seed())
		if err != nil {
			return Throughput{}, err
		}
		defer c.Close()

		items := []string{bank.AccountID(0), bank.AccountID(1)}
		reps := c.Replicas()
		return drive(c, replicas, 0, duration, func(i int) func(int) error {
			return func(round int) error {
				target := reps[i]
				if routed {
					target = c.Preferred(items)
				}
				return target.Atomic(w.Transfer(i, round))
			}
		})
	}

	local, err := run(false)
	if err != nil {
		return nil, err
	}
	routed, err := run(true)
	if err != nil {
		return nil, err
	}
	return AblationRows{
		{Variant: "own-replica submission (lease rotates every commit)", Result: local},
		{Variant: "locality-routed submission (§6: lease stays resident)", Result: routed,
			Extra: fmt.Sprintf("reuse rate %.0f%%", 100*routed.LeaseReuseRate)},
	}, nil
}
