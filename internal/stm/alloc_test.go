//go:build !race

package stm

import "testing"

// TestAllocBudgetReadWriteSet: extracting the sorted read- and write-set
// allocates the result and nothing else. (The race detector allocates on
// its own, so this runs only without it.)
func TestAllocBudgetReadWriteSet(t *testing.T) {
	s := NewStore()
	txn := s.Begin(false)
	for _, id := range []string{"d", "b", "c", "a"} {
		if _, err := s.CreateBox(id, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := txn.Read(id); err != nil {
			t.Fatal(err)
		}
		if err := txn.Write(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _ = txn.ReadSet() }); got != 1 {
		t.Fatalf("ReadSet allocates %v times, want 1 (the result)", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = txn.WriteSet() }); got != 1 {
		t.Fatalf("WriteSet allocates %v times, want 1 (the result)", got)
	}
}
