package main

import (
	"fmt"
	"math/rand"

	"github.com/alcstm/alc/internal/bank"
	"github.com/alcstm/alc/internal/stm"
)

// numCallers is fixed by the host this benchmark is sized for (2 cores):
// caller i is pinned to replica i, replica 2 is a passive follower, so no
// replica ever has two local commits in flight.
const numCallers = 2

type opKind uint8

const (
	opInc opKind = iota
	opGet
	opTransfer
)

// op is one generated operation. key (and key2 for a transfer) index into
// the workload's key table; round picks a transfer's direction.
type op struct {
	kind  opKind
	key   int
	key2  int
	round int
}

// workload describes one traffic mix: the store it starts from, the cluster
// it runs on and the operation stream each caller draws.
type workload struct {
	name string
	why  string
	// keys names every box the callers may touch and verification reads;
	// initial holds their seeded values.
	keys    []string
	initial []int
	// shards, durable: the core.Config the cluster is built with.
	shards  int
	durable bool
	// pairSum: keys come in pairs (2j, 2j+1) whose sum every operation keeps.
	pairSum bool
	// clientPort: callers go through clientsrv over TCP (false: they call
	// Replica.Atomic in-process).
	clientPort bool
	// pretouch lists, per caller, the operations set-up runs once so that
	// the leases the window needs are already held where they will be used.
	pretouch func(caller int) []op
	// next draws caller's next operation. counts is the caller's own
	// per-key operation count so far (transfers alternate direction on it).
	next func(caller int, rng *rand.Rand, counts []int) op
	// drivers are the layer drivers that run in this workload's traced run:
	// those of the layers that do most of its work.
	drivers []func(metricSet) error
	// openLoopProbe: the traced run ends with the fixed-rate probe.
	openLoopProbe bool
}

const (
	privateKeys  = 64    // lease-local / read-mostly: keys per caller
	sharedKeys   = 256   // lease-rotate: one shared set
	readItems    = 16384 // read-mostly: seeded items
	bankAccounts = 1024  // bank-durable: seeded accounts
	bankPairs    = 64    // bank-durable: pairs per caller
	readShare    = 90    // read-mostly: percent of Gets
)

var workloads = []*workload{
	leaseLocal(), leaseRotate(), readMostly(), bankDurable(),
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func zeroKeys(prefix string, n int) ([]string, []int) {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%05d", prefix, i)
	}
	return keys, make([]int, n)
}

func incAll(from, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opInc, key: from + i}
	}
	return ops
}

func leaseLocal() *workload {
	keys, initial := zeroKeys("priv:", numCallers*privateKeys)
	return &workload{
		name: "lease-local",
		why:  "each caller increments its own 64 keys: leases are reused, a commit is one URB (the paper's best case)",
		keys: keys, initial: initial, shards: 1, clientPort: true,
		pretouch: func(c int) []op { return incAll(c*privateKeys, privateKeys) },
		next: func(c int, rng *rand.Rand, _ []int) op {
			return op{kind: opInc, key: c*privateKeys + rng.Intn(privateKeys)}
		},
		drivers:       []func(metricSet) error{gcsDrivers, tcpnetDriver, wireDriver},
		openLoopProbe: true,
	}
}

func leaseRotate() *workload {
	keys, initial := zeroKeys("shared:", sharedKeys)
	return &workload{
		name: "lease-rotate",
		why:  "both callers increment one shared set of 256 keys: half the commits must move the lease (OAB + release + URB)",
		keys: keys, initial: initial, shards: 1, clientPort: true,
		pretouch: func(c int) []op {
			if c != 0 {
				return nil
			}
			return incAll(0, sharedKeys)
		},
		next: func(_ int, rng *rand.Rand, _ []int) op {
			return op{kind: opInc, key: rng.Intn(sharedKeys)}
		},
		drivers: []func(metricSet) error{leaseDrivers},
	}
}

func readMostly() *workload {
	keys := make([]string, readItems+numCallers*privateKeys)
	initial := make([]int, len(keys))
	for i := 0; i < readItems; i++ {
		keys[i] = fmt.Sprintf("item:%05d", i)
		initial[i] = i
	}
	for i := readItems; i < len(keys); i++ {
		keys[i] = fmt.Sprintf("priv:%05d", i-readItems)
	}
	return &workload{
		name: "read-mostly",
		why:  "90 % local snapshot reads over 16384 items beside 10 % replicated increments: a write-path gain that costs readers shows",
		keys: keys, initial: initial, shards: 1, clientPort: true,
		pretouch: func(c int) []op { return incAll(readItems+c*privateKeys, privateKeys) },
		next: func(c int, rng *rand.Rand, _ []int) op {
			if rng.Intn(100) < readShare {
				return op{kind: opGet, key: rng.Intn(readItems)}
			}
			return op{kind: opInc, key: readItems + c*privateKeys + rng.Intn(privateKeys)}
		},
		drivers: []func(metricSet) error{stmDrivers, clientsrvDriver},
	}
}

func bankDurable() *workload {
	keys := make([]string, bankAccounts)
	initial := make([]int, bankAccounts)
	for i := range keys {
		keys[i] = bank.AccountID(i)
		initial[i] = bank.InitialBalance
	}
	pair := func(c, j int, counts []int) op {
		a := 2 * (c*bankPairs + j)
		return op{kind: opTransfer, key: a, key2: a + 1, round: counts[a]}
	}
	return &workload{
		name: "bank-durable",
		why:  "in-process two-account transfers on 2 shards with WAL fsync=always: the durable, sharded commit path (wal, cross-shard group commit)",
		keys: keys, initial: initial, shards: 2, durable: true, pairSum: true,
		pretouch: func(c int) []op {
			ops := make([]op, bankPairs)
			zero := make([]int, bankAccounts)
			for j := range ops {
				ops[j] = pair(c, j, zero)
			}
			return ops
		},
		next: func(c int, rng *rand.Rand, counts []int) op {
			return pair(c, rng.Intn(bankPairs), counts)
		},
		drivers: []func(metricSet) error{walDrivers},
	}
}

// seedMap is the store content every replica is seeded with.
func (w *workload) seedMap() map[string]stm.Value {
	m := make(map[string]stm.Value, len(w.keys))
	for i, k := range w.keys {
		m[k] = w.initial[i]
	}
	return m
}

// callerRNG is the one source every choice of a caller is drawn from, so a
// seed fixes the whole input and two callers never share a stream.
func callerRNG(seed int64, caller int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(caller)*7919 + 1))
}
