package vacation

import (
	"errors"
	"reflect"
	"testing"

	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wire"
)

func newSeededStore(t *testing.T, db *DB) *stm.Store {
	t.Helper()
	s := stm.NewStore()
	for id, v := range db.Seed() {
		if _, err := s.CreateBox(id, v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func commit(t *testing.T, s *stm.Store, seq *uint64, fn func(Txn) error) {
	t.Helper()
	tx := s.Begin(false)
	if err := fn(tx); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	*seq++
	if err := tx.Commit(stm.TxnID{Replica: 1, Seq: *seq}); err != nil {
		t.Fatal(err)
	}
}

func checkInv(t *testing.T, s *stm.Store, db *DB) {
	t.Helper()
	tx := s.Begin(true)
	defer tx.Abort()
	if err := db.CheckInvariant(tx); err != nil {
		t.Fatal(err)
	}
}

func TestSeedShape(t *testing.T) {
	db := New(Config{Resources: 4, Customers: 3})
	seed := db.Seed()
	// 3 tables x 4 rows + 3 customers.
	if len(seed) != 3*4+3 {
		t.Fatalf("seed has %d boxes, want 15", len(seed))
	}
	s := newSeededStore(t, db)
	checkInv(t, s, db)
}

func TestReservationBooksCheapestAvailable(t *testing.T) {
	db := New(Config{Resources: 8, Customers: 2, Seed: 5})
	s := newSeededStore(t, db)
	var seq uint64

	var booked bool
	commit(t, s, &seq, db.MakeReservation(0, Car, []int{0, 1, 2, 3}, &booked))
	if !booked {
		t.Fatal("no booking made on a fresh database")
	}
	checkInv(t, s, db)

	// The customer's record reflects the booking; the chosen row's
	// availability dropped and it was the cheapest candidate.
	tx := s.Begin(true)
	defer tx.Abort()
	c, err := readCustomer(tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Reservations) != 1 || c.Reservations[0].Kind != Car {
		t.Fatalf("reservations = %+v", c.Reservations)
	}
	chosen, err := readResource(tx, Car, c.Reservations[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Available != chosen.Capacity-1 {
		t.Fatalf("chosen row availability %d, want capacity-1", chosen.Available)
	}
	for _, id := range []int{0, 1, 2, 3} {
		r, err := readResource(tx, Car, id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Price < chosen.Price {
			t.Fatalf("row %d is cheaper (%d < %d) but was not chosen", id, r.Price, chosen.Price)
		}
	}
}

func TestSellOutReportsNoBooking(t *testing.T) {
	db := New(Config{Resources: 2, Customers: 4, Seed: 3})
	s := newSeededStore(t, db)
	var seq uint64

	// Drain row 0 of flights completely.
	for {
		var booked bool
		commit(t, s, &seq, db.MakeReservation(1, Flight, []int{0}, &booked))
		if !booked {
			break
		}
	}
	checkInv(t, s, db)

	var booked bool
	commit(t, s, &seq, db.MakeReservation(2, Flight, []int{0}, &booked))
	if booked {
		t.Fatal("booked a sold-out flight")
	}
}

func TestReleaseAllRestoresAvailability(t *testing.T) {
	db := New(Config{Resources: 4, Customers: 2, Seed: 9})
	s := newSeededStore(t, db)
	var seq uint64

	for i := 0; i < 5; i++ {
		var booked bool
		commit(t, s, &seq, db.MakeReservation(0, Room, []int{0, 1, 2, 3}, &booked))
	}
	commit(t, s, &seq, db.ReleaseAll(0))
	checkInv(t, s, db)

	tx := s.Begin(true)
	defer tx.Abort()
	c, err := readCustomer(tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Reservations) != 0 {
		t.Fatalf("reservations not cleared: %+v", c.Reservations)
	}
	for i := 0; i < 4; i++ {
		r, err := readResource(tx, Room, i)
		if err != nil {
			t.Fatal(err)
		}
		if r.Available != r.Capacity {
			t.Fatalf("room %d availability %d != capacity %d after release", i, r.Available, r.Capacity)
		}
	}
}

func TestUpdatePricesKeepsInvariant(t *testing.T) {
	db := New(Config{Resources: 8, Customers: 2, Seed: 11})
	s := newSeededStore(t, db)
	var seq uint64

	var booked bool
	commit(t, s, &seq, db.MakeReservation(0, Car, []int{0, 1}, &booked))
	commit(t, s, &seq, db.UpdatePrices(42, 10))
	checkInv(t, s, db)
}

func TestConcurrentReservationsConflict(t *testing.T) {
	db := New(Config{Resources: 2, Customers: 2, Seed: 2})
	s := newSeededStore(t, db)

	var b1, b2 bool
	t1 := s.Begin(false)
	t2 := s.Begin(false)
	if err := db.MakeReservation(0, Car, []int{0}, &b1)(t1); err != nil {
		t.Fatal(err)
	}
	if err := db.MakeReservation(1, Car, []int{0}, &b2)(t2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(stm.TxnID{Replica: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(stm.TxnID{Replica: 1, Seq: 2}); !errors.Is(err, stm.ErrConflict) {
		t.Fatalf("overlapping reservations: second commit = %v, want conflict", err)
	}
}

func TestKindString(t *testing.T) {
	if Car.String() != "car" || Flight.String() != "flight" || Room.String() != "room" {
		t.Fatal("kind names wrong")
	}
	if ResourceKind(9).String() != "kind(9)" {
		t.Fatal("unknown kind formatting wrong")
	}
}

// TestCodecs: the box value types survive the wire codec (no reservations
// decode as nil, as the seed and ReleaseAll write them), and hostile input
// (every truncation, a reservation count past the input) is an error, never
// a panic.
func TestCodecs(t *testing.T) {
	for _, want := range []any{
		Resource{Capacity: 300, Available: -1, Price: 1 << 40},
		Resource{},
		Customer{Reservations: []Reservation{{Kind: Car, ID: 3}, {Kind: Room, ID: 1000}}},
		Customer{},
	} {
		b, err := wire.AppendAny(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(b)
		got, err := wire.ReadAny(r)
		if err != nil || !reflect.DeepEqual(got, want) || r.Len() != 0 {
			t.Fatalf("roundtrip %#v = %#v, %v (%d bytes left)", want, got, err, r.Len())
		}
		for i := range b {
			if v, err := wire.ReadAny(wire.NewReader(b[:i])); err == nil {
				t.Fatalf("%d of %d bytes of %#v decoded as %#v", i, len(b), want, v)
			}
		}
	}
	b := wire.AppendUvarint([]byte{tagCustomer}, 1000) // reservations
	if _, err := wire.ReadAny(wire.NewReader(append(b, 2, 6, 4, 8))); !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("oversize count err = %v, want ErrOversize", err)
	}
}
