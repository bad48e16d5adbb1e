package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/randseed"
	"github.com/alcstm/alc/internal/stm"
)

// RoutingPairs is the number of fixed account pairs in ablation-routing's
// key space (2·RoutingPairs accounts). Transfers pick a PAIR zipfian-ly, so
// item sets repeat — the precondition for lease retention to pay at all —
// while the skew concentrates most traffic on a few hot pairs. Drawing two
// independent zipfian accounts instead would make nearly every item set
// unique (hot account + fresh cold partner), and no placement policy can
// reuse a lease that never covers the next request.
const RoutingPairs = 64

// RoutingSkew is the zipfian exponent (s≈1.2: the classic skew where a few
// hot pairs absorb most transfers).
const RoutingSkew = 1.2

// RunAblationRouting measures what the live affinity map buys over oblivious
// placement on a skewed workload. Every replica originates transfers within
// zipfian-drawn account pairs; the variants differ only in which replica
// executes each transaction:
//
//   - random: a uniformly random replica. A hot pair's lease bounces between
//     replicas, so most commits pay the OAB lease acquisition (~800/s
//     cluster-wide under the calibrated sequencer).
//
//   - static rendezvous: the rendezvous-hash owner of the item set. With a
//     fixed key→replica map this is near-optimal placement — the bar the
//     learned affinity map has to match without being told the hash.
//
//   - affinity: Cluster.Submit over the live lease-affinity map — transactions
//     migrate to whichever replica the trace stream says already holds the
//     leases, rendezvous only for cold classes. Unlike the static variant it
//     re-learns placement when owners crash or leases move.
//
// All three share the same seeded zipfian streams (per-origin sub-seeds of
// the same root), so they face the identical access pattern.
func RunAblationRouting(base Params, duration time.Duration) (AblationRows, error) {
	if duration <= 0 {
		duration = time.Second
	}
	root := randseed.Root()

	type variant struct {
		name string
		mode string // "random" | "rendezvous" | "affinity"
	}
	variants := []variant{
		{"random replica (lease bounces)", "random"},
		{"static rendezvous (workload-blind)", "rendezvous"},
		{"affinity-routed (live lease map + migration)", "affinity"},
	}

	rows := make(AblationRows, 0, len(variants))
	for _, v := range variants {
		res, extra, err := runRoutingVariant(v.mode, base, duration, root)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation-routing %q: %w", v.name, err)
		}
		rows = append(rows, AblationRow{Variant: v.name, Result: res, Extra: extra})
	}
	return rows, nil
}

func runRoutingVariant(mode string, p Params, duration time.Duration, root int64) (Throughput, string, error) {
	p.Protocol, p.Route = core.ProtocolALC, mode == "affinity"
	seed := make(map[string]stm.Value, 2*RoutingPairs)
	for i := 0; i < 2*RoutingPairs; i++ {
		seed[bank.AccountID(i)] = bank.InitialBalance
	}
	c, err := NewCluster(p, seed)
	if err != nil {
		return Throughput{}, "", err
	}
	defer c.Close()

	reps := c.Replicas()
	res, err := drive(c, len(reps), 0, duration, func(origin int) func(int) error {
		// Same zipf sub-seed per origin across all three variants: the
		// conflict pattern each variant faces is identical.
		z := NewZipf(randseed.Derive(root, fmt.Sprintf("routing-origin-%d", origin)), RoutingSkew, RoutingPairs)
		rng := rand.New(rand.NewSource(randseed.Derive(root, fmt.Sprintf("routing-pick-%d", origin))))
		return func(round int) error {
			pair := z.Next()
			items := []string{bank.AccountID(2 * pair), bank.AccountID(2*pair + 1)}
			fn := bank.TransferBetween(items[0], items[1], round)
			switch mode {
			case "random":
				return reps[rng.Intn(len(reps))].Atomic(fn)
			case "rendezvous":
				return c.Preferred(items).Atomic(fn)
			default: // affinity
				return c.Submit(origin, items, fn)
			}
		}
	})
	if err != nil {
		return Throughput{}, "", err
	}

	extra := fmt.Sprintf("reuse=%.0f%%", 100*res.LeaseReuseRate)
	total := c.TotalStats()
	if total.MigratedIn > 0 {
		extra += fmt.Sprintf(" migrated=%d", total.MigratedIn)
	}
	if r := c.Router(); r != nil {
		s := r.Stats()
		extra += fmt.Sprintf(" decisions[affinity=%d rendezvous=%d local=%d] tracked=%d",
			s.Affinity, s.Rendezvous, s.Local, s.Tracked)
	}
	return res, extra, nil
}
