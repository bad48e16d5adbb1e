package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
)

// RunAblationShard measures horizontal sharding: the conflict classes
// partitioned across S independent lease/broadcast groups, each with its own
// sequencer. The workload is sharded counters under lease rotation — counter
// c is incremented by threads on two different replicas, so its lease
// ping-pongs and every rotation costs one OAB on the counter's home group.
// On the calibrated sequencer (base.ABCeiling = 0) those requests serialize
// at S=1 through ONE ~1.2ms/message token bucket — the paper's bottleneck —
// and at S>1 through S of them, so commit throughput scales with S. On the
// native sequencer (negative ABCeiling) ordering is not the bottleneck and
// S groups only multiply the per-group overhead. cmd/alc-bench runs both.
//
// Two mixes per shard count:
//
//   - disjoint — every transaction touches one counter, i.e. exactly one
//     group; nothing crosses shards (the pure horizontal-scaling case);
//   - 10% cross — every tenth transaction also increments a partner counter
//     chosen from a DIFFERENT group (under that cell's S), committing
//     through the cross-shard certification path.
//
// The box set and access pattern are identical across shard counts; only
// the partition varies.
func RunAblationShard(base Params, shardCounts []int, duration time.Duration) (AblationRows, error) {
	if duration <= 0 {
		duration = time.Second
	}
	replicas := base.Replicas
	base.Protocol = core.ProtocolALC
	const threadsPerReplica = 8
	counters := replicas * threadsPerReplica
	ids := make([]string, counters)
	seed := make(map[string]stm.Value, counters)
	for i := range ids {
		ids[i] = fmt.Sprintf("ctr:%03d", i)
		seed[ids[i]] = 0
	}

	rows := make(AblationRows, 0, 2*len(shardCounts))
	for _, s := range shardCounts {
		for _, crossFrac := range []float64{0, 0.10} {
			p := base
			p.Shards = s
			res, cross, err := runShardCell(p, crossFrac, threadsPerReplica, ids, seed, duration)
			if err != nil {
				return nil, fmt.Errorf("bench: ablation-shard S=%d cross=%.0f%%: %w", s, 100*crossFrac, err)
			}
			name := fmt.Sprintf("S=%d disjoint", s)
			extra := ""
			if crossFrac > 0 {
				name = fmt.Sprintf("S=%d 10%% cross", s)
				extra = fmt.Sprintf("%d cross-shard commits", cross)
			}
			rows = append(rows, AblationRow{Variant: name, Result: res, Extra: extra})
		}
	}
	return rows, nil
}

func runShardCell(p Params, crossFrac float64, threadsPerReplica int,
	ids []string, seed map[string]stm.Value, duration time.Duration) (Throughput, int64, error) {
	replicas, shards := p.Replicas, p.Shards
	c, err := NewCluster(p, seed)
	if err != nil {
		return Throughput{}, 0, err
	}
	defer c.Close()

	// partner[i]: a counter homed on a different group than counter i (the
	// cross-shard mix pairs them). With S=1 no such counter exists; the
	// next counter keeps the two-box access pattern identical, just
	// single-group.
	var mapper lease.Mapper
	partner := make([]int, len(ids))
	for i := range ids {
		partner[i] = (i + 1) % len(ids)
		home := lease.ShardOf(mapper.ClassOf(ids[i]), shards)
		for d := 1; d < len(ids); d++ {
			j := (i + d) % len(ids)
			if lease.ShardOf(mapper.ClassOf(ids[j]), shards) != home {
				partner[i] = j
				break
			}
		}
	}

	incr := func(boxes ...string) func(*stm.Txn) error {
		return func(tx *stm.Txn) error {
			for _, id := range boxes {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				if err := tx.Write(id, v.(int)+1); err != nil {
					return err
				}
			}
			return nil
		}
	}

	reps := c.Replicas()
	res, err := drive(c, replicas*threadsPerReplica, 0, duration, func(w int) func(int) error {
		r, t := w/threadsPerReplica, w%threadsPerReplica
		rng := rand.New(rand.NewSource(int64(w + 1)))
		// own rotates with a committer on the next replica: counter `alt`
		// is also incremented by that replica's thread t, so its lease
		// ping-pongs between the two (every rotation is one OAB on the
		// counter's home group).
		own := w
		alt := ((r+1)%len(reps))*threadsPerReplica + t
		return func(round int) error {
			target := own
			if round%2 == 1 {
				target = alt
			}
			body := incr(ids[target])
			if crossFrac > 0 && rng.Float64() < crossFrac {
				body = incr(ids[target], ids[partner[target]])
			}
			return reps[r].Atomic(body)
		}
	})
	if err != nil {
		return Throughput{}, 0, err
	}
	var cross int64
	for _, r := range reps {
		cross += r.Stats().CrossCommits
	}
	return res, cross, nil
}
