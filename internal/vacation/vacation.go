// Package vacation implements a travel-reservation workload in the style of
// the STAMP benchmark suite's "vacation" application: a relational-ish
// database of cars, flights and rooms, plus customers holding reservations,
// all living in the replicated STM. Transactions mix short point updates
// (reserve, release) with table-scanning maintenance operations, giving a
// realistic OLTP-flavoured contention profile that is neither Bank's
// single-cell slam nor Lee's region flooding.
//
// The conservation invariant — for every resource, capacity equals available
// units plus units held across all customer reservations — must hold on
// every replica after any quiescent point, and is checkable inside a single
// read-only transaction.
package vacation

import (
	"fmt"
	"math/rand"

	"github.com/alcstm/alc/internal/wire"
)

// Txn is the slice of a transaction the workload needs; it is satisfied by
// both the internal *stm.Txn and the public API's transaction handle.
type Txn interface {
	Read(box string) (any, error)
	Write(box string, v any) error
}

// ResourceKind enumerates the reservation tables.
type ResourceKind int

const (
	// Car is the car-rental table.
	Car ResourceKind = iota + 1
	// Flight is the flight table.
	Flight
	// Room is the hotel-room table.
	Room
)

var kinds = []ResourceKind{Car, Flight, Room}

func (k ResourceKind) String() string {
	switch k {
	case Car:
		return "car"
	case Flight:
		return "flight"
	case Room:
		return "room"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Resource is the immutable value of one resource box.
type Resource struct {
	Capacity  int
	Available int
	Price     int
}

// Reservation is one customer holding.
type Reservation struct {
	Kind ResourceKind
	ID   int
}

// Customer is the immutable value of one customer box. The Reservations
// slice is copy-on-write: transactions build a new slice rather than
// mutating the stored one.
type Customer struct {
	Reservations []Reservation
}

// Config sizes the database.
type Config struct {
	// Resources is the number of rows per table. Default 32.
	Resources int
	// Customers is the number of customer records. Default 64.
	Customers int
	// Seed drives the initial capacities and prices.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.Resources <= 0 {
		c.Resources = 32
	}
	if c.Customers <= 0 {
		c.Customers = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// DB is a handle on the reservation database (stateless; all state is in
// boxes).
type DB struct {
	cfg Config
}

// New creates a handle with the given sizing.
func New(cfg Config) *DB {
	cfg.fillDefaults()
	return &DB{cfg: cfg}
}

// Resources returns the per-table row count.
func (db *DB) Resources() int { return db.cfg.Resources }

// Customers returns the number of customer records.
func (db *DB) Customers() int { return db.cfg.Customers }

func resourceBox(k ResourceKind, id int) string { return fmt.Sprintf("vac:%v:%03d", k, id) }
func customerBox(id int) string                 { return fmt.Sprintf("vac:cust:%03d", id) }

// Seed returns the initial database content.
func (db *DB) Seed() map[string]any {
	rng := rand.New(rand.NewSource(db.cfg.Seed))
	seed := make(map[string]any)
	for _, k := range kinds {
		for i := 0; i < db.cfg.Resources; i++ {
			cap := 5 + rng.Intn(10)
			seed[resourceBox(k, i)] = Resource{
				Capacity:  cap,
				Available: cap,
				Price:     50 + 10*rng.Intn(50),
			}
		}
	}
	for i := 0; i < db.cfg.Customers; i++ {
		seed[customerBox(i)] = Customer{}
	}
	return seed
}

// readResource loads one resource row.
func readResource(tx Txn, k ResourceKind, id int) (Resource, error) {
	v, err := tx.Read(resourceBox(k, id))
	if err != nil {
		return Resource{}, err
	}
	r, ok := v.(Resource)
	if !ok {
		return Resource{}, fmt.Errorf("vacation: box %s holds %T", resourceBox(k, id), v)
	}
	return r, nil
}

// readCustomer loads one customer row.
func readCustomer(tx Txn, id int) (Customer, error) {
	v, err := tx.Read(customerBox(id))
	if err != nil {
		return Customer{}, err
	}
	c, ok := v.(Customer)
	if !ok {
		return Customer{}, fmt.Errorf("vacation: box %s holds %T", customerBox(id), v)
	}
	return c, nil
}

// MakeReservation returns a transaction body that books, for customer cust,
// the cheapest available resource of kind k among the candidate IDs. It
// reports whether a booking was made (false: everything sold out).
func (db *DB) MakeReservation(cust int, k ResourceKind, candidates []int, booked *bool) func(Txn) error {
	return func(tx Txn) error {
		*booked = false
		bestID := -1
		var best Resource
		for _, id := range candidates {
			r, err := readResource(tx, k, id)
			if err != nil {
				return err
			}
			if r.Available > 0 && (bestID < 0 || r.Price < best.Price) {
				bestID, best = id, r
			}
		}
		if bestID < 0 {
			return nil // sold out: a successful, empty transaction
		}
		best.Available--
		if err := tx.Write(resourceBox(k, bestID), best); err != nil {
			return err
		}
		c, err := readCustomer(tx, cust)
		if err != nil {
			return err
		}
		// Copy-on-write append.
		res := make([]Reservation, len(c.Reservations)+1)
		copy(res, c.Reservations)
		res[len(res)-1] = Reservation{Kind: k, ID: bestID}
		if err := tx.Write(customerBox(cust), Customer{Reservations: res}); err != nil {
			return err
		}
		*booked = true
		return nil
	}
}

// ReleaseAll returns a transaction body that cancels every reservation of a
// customer (the STAMP "delete customer" operation, without removing the
// record).
func (db *DB) ReleaseAll(cust int) func(Txn) error {
	return func(tx Txn) error {
		c, err := readCustomer(tx, cust)
		if err != nil {
			return err
		}
		for _, resv := range c.Reservations {
			r, err := readResource(tx, resv.Kind, resv.ID)
			if err != nil {
				return err
			}
			r.Available++
			if err := tx.Write(resourceBox(resv.Kind, resv.ID), r); err != nil {
				return err
			}
		}
		return tx.Write(customerBox(cust), Customer{})
	}
}

// UpdatePrices returns a transaction body that re-prices a batch of random
// rows (the STAMP "update tables" maintenance operation).
func (db *DB) UpdatePrices(seed int64, rows int) func(Txn) error {
	return func(tx Txn) error {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < rows; i++ {
			k := kinds[rng.Intn(len(kinds))]
			id := rng.Intn(db.cfg.Resources)
			r, err := readResource(tx, k, id)
			if err != nil {
				return err
			}
			r.Price = 50 + 10*rng.Intn(50)
			if err := tx.Write(resourceBox(k, id), r); err != nil {
				return err
			}
		}
		return nil
	}
}

// CheckInvariant verifies conservation inside one transaction: for every
// resource row, capacity == available + units reserved across customers,
// and no row has negative availability.
func (db *DB) CheckInvariant(tx Txn) error {
	held := make(map[Reservation]int)
	for i := 0; i < db.cfg.Customers; i++ {
		c, err := readCustomer(tx, i)
		if err != nil {
			return err
		}
		for _, r := range c.Reservations {
			held[r]++
		}
	}
	for _, k := range kinds {
		for i := 0; i < db.cfg.Resources; i++ {
			r, err := readResource(tx, k, i)
			if err != nil {
				return err
			}
			if r.Available < 0 {
				return fmt.Errorf("vacation: %v %d has negative availability %d", k, i, r.Available)
			}
			if r.Available+held[Reservation{Kind: k, ID: i}] != r.Capacity {
				return fmt.Errorf("vacation: %v %d: capacity %d != available %d + held %d",
					k, i, r.Capacity, r.Available, held[Reservation{Kind: k, ID: i}])
			}
		}
	}
	return nil
}

// Wire tags of the box value types (the application-value range 0x30-0x3F;
// see internal/wire). Tags are wire format: never renumber.
const (
	tagResource byte = 0x31
	tagCustomer byte = 0x32
)

// The codecs make the database's boxes encodable wherever box values are
// serialized: tcpnet frames, WAL records and snapshots, state transfers.
func init() {
	wire.Register(tagResource, Resource{}, encodeResource, decodeResource)
	wire.Register(tagCustomer, Customer{}, encodeCustomer, decodeCustomer)
}

func encodeResource(b []byte, v any) ([]byte, error) {
	x := v.(Resource)
	b = wire.AppendVarint(b, int64(x.Capacity))
	b = wire.AppendVarint(b, int64(x.Available))
	return wire.AppendVarint(b, int64(x.Price)), nil
}

func decodeResource(r *wire.Reader) (any, error) {
	x := Resource{Capacity: int(r.Varint()), Available: int(r.Varint()), Price: int(r.Varint())}
	return x, r.Err()
}

func encodeCustomer(b []byte, v any) ([]byte, error) {
	x := v.(Customer)
	b = wire.AppendUvarint(b, uint64(len(x.Reservations)))
	for _, res := range x.Reservations {
		b = wire.AppendVarint(b, int64(res.Kind))
		b = wire.AppendVarint(b, int64(res.ID))
	}
	return b, nil
}

// decodeCustomer decodes no reservations as a nil slice, so a decoded value
// is DeepEqual to the empty record ReleaseAll and Seed write.
func decodeCustomer(r *wire.Reader) (any, error) {
	var x Customer
	if n := r.Count(); n > 0 {
		x.Reservations = make([]Reservation, n)
		for i := range x.Reservations {
			x.Reservations[i] = Reservation{Kind: ResourceKind(r.Varint()), ID: int(r.Varint())}
		}
	}
	return x, r.Err()
}
