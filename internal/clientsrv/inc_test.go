package clientsrv

import (
	"errors"
	"fmt"
	"testing"

	"github.com/alcstm/alc/internal/stm"
)

// fakeTx scripts the Read result and records the Write, standing in for a
// *stm.Txn mid-transaction.
type fakeTx struct {
	readVal  stm.Value
	readErr  error
	wroteKey string
	wroteVal stm.Value
	wrote    bool
}

func (f *fakeTx) Read(string) (stm.Value, error) { return f.readVal, f.readErr }

func (f *fakeTx) Write(box string, v stm.Value) error {
	f.wrote, f.wroteKey, f.wroteVal = true, box, v
	return nil
}

// Regression: inc used to treat EVERY read error as "key absent" and write
// 0+delta — including the conflict errors that must abort the attempt so the
// STM re-executes it. A conflicting read now propagates and writes nothing.
func TestApplyIncPropagatesAbortErrors(t *testing.T) {
	conflict := fmt.Errorf("validate: %w", stm.ErrConflict)
	tx := &fakeTx{readErr: conflict}
	_, err := ApplyInc(tx, "k", 5)
	if !errors.Is(err, stm.ErrConflict) {
		t.Fatalf("ApplyInc returned %v, want the wrapped stm.ErrConflict", err)
	}
	if tx.wrote {
		t.Fatalf("ApplyInc wrote %v after a conflicting read — the lost-update bug is back", tx.wroteVal)
	}
}

func TestApplyIncTxnDonePropagates(t *testing.T) {
	tx := &fakeTx{readErr: stm.ErrTxnDone}
	if _, err := ApplyInc(tx, "k", 1); !errors.Is(err, stm.ErrTxnDone) {
		t.Fatalf("ApplyInc returned %v, want stm.ErrTxnDone", err)
	}
	if tx.wrote {
		t.Fatal("ApplyInc wrote after ErrTxnDone")
	}
}

// A genuinely missing box still means "create at delta".
func TestApplyIncMissingBoxStartsAtZero(t *testing.T) {
	tx := &fakeTx{readErr: fmt.Errorf("%w: %q", stm.ErrNoSuchBox, "k")}
	if _, err := ApplyInc(tx, "k", 3); err != nil {
		t.Fatalf("ApplyInc: %v", err)
	}
	if !tx.wrote || tx.wroteKey != "k" || tx.wroteVal != 3 {
		t.Fatalf("wrote %v=%v, want k=3", tx.wroteKey, tx.wroteVal)
	}
}

func TestApplyIncIncrementsExisting(t *testing.T) {
	tx := &fakeTx{readVal: 39}
	if _, err := ApplyInc(tx, "k", 3); err != nil {
		t.Fatalf("ApplyInc: %v", err)
	}
	if tx.wroteVal != 42 {
		t.Fatalf("wrote %v, want 42", tx.wroteVal)
	}
}

func TestApplyIncRejectsNonInt(t *testing.T) {
	tx := &fakeTx{readVal: "not an int"}
	if _, err := ApplyInc(tx, "k", 1); err == nil {
		t.Fatal("ApplyInc accepted a non-int box")
	}
	if tx.wrote {
		t.Fatal("ApplyInc wrote over a non-int box")
	}
}

// End-to-end on a real store: ApplyInc against a live transaction both
// creates a missing box and increments an existing one.
func TestApplyIncOnRealStore(t *testing.T) {
	store := stm.NewStore()

	seed := store.Begin(false)
	if _, err := ApplyInc(seed, "k", 10); err != nil {
		t.Fatalf("ApplyInc (create): %v", err)
	}
	if err := seed.Commit(stm.TxnID{Seq: 1}); err != nil {
		t.Fatalf("seed commit: %v", err)
	}

	tx := store.Begin(false)
	if _, err := ApplyInc(tx, "k", 5); err != nil {
		t.Fatalf("ApplyInc (increment): %v", err)
	}
	if err := tx.Commit(stm.TxnID{Seq: 2}); err != nil {
		t.Fatalf("commit: %v", err)
	}

	ro := store.Begin(true)
	defer ro.Finish()
	v, err := ro.Read("k")
	if err != nil {
		t.Fatal(err)
	}
	if v != 15 {
		t.Fatalf("k = %v, want 15", v)
	}
}
