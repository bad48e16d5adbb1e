package clientsrv

import (
	"errors"
	"fmt"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

// ReplicaBackend executes client operations against a replica: gets run as
// local read-only transactions, sets and incs as replicated update
// transactions. Box values are ints (the alc-node convention; clients speak
// int64 and the store keeps int).
type ReplicaBackend struct {
	R *core.Replica
}

// Exec implements Backend.
func (b ReplicaBackend) Exec(op wire.Op, key string, arg int64) (int64, error) {
	switch op {
	case wire.OpPing:
		return 0, nil
	case wire.OpGet:
		var out int64
		err := b.R.AtomicRO(func(tx *stm.Txn) error {
			v, err := tx.Read(key)
			if err != nil {
				return err
			}
			n, ok := v.(int)
			if !ok {
				return fmt.Errorf("box %s holds %T, not int", key, v)
			}
			out = int64(n)
			return nil
		})
		if errors.Is(err, stm.ErrNoSuchBox) {
			return 0, ErrNotFound
		}
		return out, err
	case wire.OpSet:
		err := b.R.Atomic(func(tx *stm.Txn) error {
			return tx.Write(key, int(arg))
		})
		return arg, err
	case wire.OpInc:
		var out int64
		err := b.R.Atomic(func(tx *stm.Txn) (err error) {
			out, err = ApplyInc(tx, key, arg)
			return err
		})
		return out, err
	}
	return 0, fmt.Errorf("unknown op %d", byte(op))
}

// TxReadWriter is the slice of *stm.Txn that ApplyInc needs: the seam that
// lets its tests script a read's outcome without driving a live store into
// each case.
type TxReadWriter interface {
	Read(box string) (stm.Value, error)
	Write(box string, v stm.Value) error
}

// ApplyInc is the read-modify-write body of an increment, shared by the
// client port's OpInc and alc-node's inc command: it adds delta to the int
// in box key and returns the sum. Only a missing box means "start from
// zero": any other read error (snapshot conflict, finished transaction)
// must propagate so the STM aborts and transparently re-executes —
// swallowing it would commit 0+delta over a value the transaction was not
// entitled to ignore.
func ApplyInc(tx TxReadWriter, key string, delta int64) (int64, error) {
	cur := 0
	v, err := tx.Read(key)
	switch {
	case errors.Is(err, stm.ErrNoSuchBox):
		// absent: create at delta
	case err != nil:
		return 0, err
	default:
		n, ok := v.(int)
		if !ok {
			return 0, fmt.Errorf("box %s holds %T, not int", key, v)
		}
		cur = n
	}
	sum := int64(cur) + delta
	return sum, tx.Write(key, int(sum))
}
