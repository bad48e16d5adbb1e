package bench

import (
	"fmt"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
)

// LatencyRow is one commit-latency scenario (§4.5's communication-step
// analysis, and the source of the paper's "up to tenfold reduction of the
// commit latency" headline).
type LatencyRow struct {
	Scenario string
	// Steps is the analytical number of communication steps (§4.5).
	Steps int
	// OrderInterval is the sequencer pacing the cell ran under (0 = native).
	OrderInterval time.Duration
	Commits       int64
	Mean          time.Duration
	P50           time.Duration
	P99           time.Duration
}

// RunLatency measures the commit-phase latency of every protocol variant
// under zero contention (single outstanding transaction), on a cluster of
// the given size:
//
//	ALC lease-held    — 1 URB                                  = 2 steps
//	ALC miss (base)   — OAB req + URB freed + URB write-set    = 7 steps
//	ALC miss (§4.5b)  — free at Opt-delivery + URB write-set   = 5 steps
//	ALC miss (§4.5bc) — certification rides the lease request  = 3 steps
//	CERT              — 1 OAB                                  = 3 steps
//
// Misses are produced by ping-ponging single commits between two replicas,
// so every commit must pull the lease from an idle peer (pure transfer
// latency, no queueing).
func RunLatency(base Params, commitsPerCell int) (LatencyRows, error) {
	if commitsPerCell <= 0 {
		commitsPerCell = 200
	}
	cells := []struct {
		name                 string
		steps                int
		protocol             core.Protocol
		noOptFree, piggyback bool
		pingPong             bool
	}{
		{"ALC lease-held (1 URB)", 2, core.ProtocolALC, false, false, false},
		{"ALC lease-miss, baseline §4", 7, core.ProtocolALC, true, false, true},
		{"ALC lease-miss, opt-delivery free §4.5(b)", 5, core.ProtocolALC, false, false, true},
		{"ALC lease-miss, piggybacked certification §4.5(b+c)", 3, core.ProtocolALC, false, true, true},
		{"CERT (1 OAB)", 3, core.ProtocolCert, false, false, false},
	}

	rows := make(LatencyRows, 0, len(cells))
	for _, cl := range cells {
		p := base
		p.Protocol, p.DisableOptimisticFree, p.DisablePiggybackCert = cl.protocol, cl.noOptFree, !cl.piggyback
		row, err := runLatencyCell(p, cl.pingPong, commitsPerCell)
		if err != nil {
			return nil, fmt.Errorf("bench: latency %q: %w", cl.name, err)
		}
		row.Scenario = cl.name
		row.Steps = cl.steps
		rows = append(rows, row)
	}
	return rows, nil
}

func runLatencyCell(p Params, pingPong bool, commits int) (LatencyRow, error) {
	c, err := NewCluster(p, map[string]stm.Value{"x": 0})
	if err != nil {
		return LatencyRow{}, err
	}
	defer c.Close()

	inc := func(tx *stm.Txn) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		return tx.Write("x", v.(int)+1)
	}

	reps := c.Replicas()
	// Serial cells run on the last replica: replica 0 is the OAB sequencer,
	// which enjoys a shortened certification path that would bias the CERT
	// measurement. Ping-pong cells alternate between two non-sequencer
	// replicas when the cluster is large enough.
	serial := reps[len(reps)-1]
	ppA, ppB := 0, 1
	if len(reps) >= 3 {
		ppA, ppB = 1, 2
	}
	pick := func(i int) *core.Replica {
		if !pingPong {
			return serial
		}
		if i%2 == 0 {
			return reps[ppA]
		}
		return reps[ppB]
	}
	// Warmup: establish leases and fill caches.
	for i := 0; i < 10; i++ {
		if err := pick(i).Atomic(inc); err != nil {
			return LatencyRow{}, err
		}
	}
	for i := 0; i < commits; i++ {
		if err := pick(i).Atomic(inc); err != nil {
			return LatencyRow{}, err
		}
	}

	// Aggregate the (post-warmup-dominated) latency histograms.
	var (
		total int64
		mean  time.Duration
		p50   time.Duration
		p99   time.Duration
	)
	for _, r := range reps {
		h := r.Stats().CommitLatency
		n := h.Count()
		if n == 0 {
			continue
		}
		total += n
		mean += time.Duration(int64(h.Mean()) * n)
		if q := h.Quantile(0.50); q > p50 {
			p50 = q
		}
		if q := h.Quantile(0.99); q > p99 {
			p99 = q
		}
	}
	if total > 0 {
		mean /= time.Duration(total)
	}
	row := LatencyRow{Commits: total, Mean: mean, P50: p50, P99: p99}
	row.OrderInterval = c.OrderInterval
	return row, nil
}
