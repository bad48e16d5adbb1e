// Package bank implements the synthetic Bank micro-benchmark used in §5 of
// the paper (adapted from the DSTM2 suite of Herlihy et al.): an array of
// numReplicas·2 accounts, exercised in two extreme contention regimes.
//
//   - NoConflict: each replica reads and updates a distinct fragment of the
//     array, so transactions never conflict. Under ALC every replica
//     establishes its lease once and then commits through URB only
//     (Figure 3(a)).
//
//   - HighConflict: every replica reads and updates the same accounts, so
//     every pair of concurrent transactions conflicts. Leases rotate
//     constantly — the worst case for ALC — while CERT degenerates into
//     repeated aborts (Figure 3(b)).
//
// A transaction transfers a unit between the two accounts of its fragment
// and the benchmark asserts the invariant that the total balance is
// conserved.
package bank

import (
	"fmt"

	"github.com/alcstm/alc/internal/stm"
)

// Mode selects the contention regime.
type Mode int

const (
	// NoConflict gives each replica a private pair of accounts.
	NoConflict Mode = iota + 1
	// HighConflict makes every replica update the same pair of accounts.
	HighConflict
)

func (m Mode) String() string {
	switch m {
	case NoConflict:
		return "no-conflict"
	case HighConflict:
		return "high-conflict"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// InitialBalance is each account's seeded balance.
const InitialBalance = 1000

// Workload is a bank benchmark instance for a cluster of n replicas.
type Workload struct {
	n       int
	mode    Mode
	threads int
}

// New creates a workload for n replicas in the given mode.
func New(n int, mode Mode) *Workload {
	return &Workload{n: n, mode: mode, threads: 1}
}

// NewSharded creates a no-conflict workload with a private account pair per
// (replica, thread): the high-throughput regime where each replica hosts many
// concurrent committers on disjoint conflict classes — the workload the
// group-commit batching ablation measures.
func NewSharded(n, threads int) *Workload {
	if threads <= 0 {
		threads = 1
	}
	return &Workload{n: n, mode: NoConflict, threads: threads}
}

// AccountID names one account.
func AccountID(i int) string { return fmt.Sprintf("acct:%03d", i) }

// NumAccounts returns the array size: numReplicas · threads · 2 (the paper's
// numReplicas · 2 when unsharded).
func (w *Workload) NumAccounts() int { return w.n * w.threads * 2 }

// Seed returns the initial store content.
func (w *Workload) Seed() map[string]stm.Value {
	seed := make(map[string]stm.Value, w.NumAccounts())
	for i := 0; i < w.NumAccounts(); i++ {
		seed[AccountID(i)] = InitialBalance
	}
	return seed
}

// TotalBalance returns the conserved sum of all balances.
func (w *Workload) TotalBalance() int { return w.NumAccounts() * InitialBalance }

// accounts returns the account pair (replica, thread) operates on.
func (w *Workload) accounts(replica, thread int) (string, string) {
	switch w.mode {
	case HighConflict:
		return AccountID(0), AccountID(1)
	default:
		base := 2 * (replica*w.threads + thread)
		return AccountID(base), AccountID(base + 1)
	}
}

// Items returns the data items the (replica, thread) pair's transfers touch
// — the declared item set locality-aware placement (Cluster.Preferred) hashes.
func (w *Workload) Items(replica, thread int) []string {
	a, b := w.accounts(replica, thread)
	return []string{a, b}
}

// Transfer returns the transaction body for one unit transfer executed by
// the given replica. Equivalent to TransferAt(replica, 0, round).
func (w *Workload) Transfer(replica, round int) func(*stm.Txn) error {
	return w.TransferAt(replica, 0, round)
}

// TransferBetween returns a transaction body moving one unit between two
// explicit accounts, with the direction alternating by round so balances
// wander instead of draining. It preserves the same conservation invariant
// as TransferAt for any account pair drawn from the seeded array.
func TransferBetween(a, b string, round int) func(*stm.Txn) error {
	src, dst := a, b
	if round%2 == 1 {
		src, dst = dst, src
	}
	return func(tx *stm.Txn) error {
		sv, err := tx.Read(src)
		if err != nil {
			return err
		}
		dv, err := tx.Read(dst)
		if err != nil {
			return err
		}
		if err := tx.Write(src, sv.(int)-1); err != nil {
			return err
		}
		return tx.Write(dst, dv.(int)+1)
	}
}

// TransferAt returns the transaction body for one unit transfer executed by
// the given (replica, thread) pair: read both fragment accounts, move one
// unit between them. The direction alternates with round so balances wander
// instead of draining.
func (w *Workload) TransferAt(replica, thread, round int) func(*stm.Txn) error {
	src, dst := w.accounts(replica, thread)
	if round%2 == 1 {
		src, dst = dst, src
	}
	return func(tx *stm.Txn) error {
		sv, err := tx.Read(src)
		if err != nil {
			return err
		}
		dv, err := tx.Read(dst)
		if err != nil {
			return err
		}
		if err := tx.Write(src, sv.(int)-1); err != nil {
			return err
		}
		return tx.Write(dst, dv.(int)+1)
	}
}

// CheckInvariant sums all balances in one read-only transaction and verifies
// conservation of money.
func (w *Workload) CheckInvariant(tx *stm.Txn) error {
	total := 0
	for i := 0; i < w.NumAccounts(); i++ {
		v, err := tx.Read(AccountID(i))
		if err != nil {
			return err
		}
		total += v.(int)
	}
	if total != w.TotalBalance() {
		return fmt.Errorf("bank: invariant violated: total %d, want %d", total, w.TotalBalance())
	}
	return nil
}
