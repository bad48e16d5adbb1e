package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"

	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wal"
	"github.com/alcstm/alc/internal/wire"
)

// The durability tier driven directly — newDurable over a temp dir, no
// replica, no GCS: what a WAL record and a snapshot carry across a restart,
// and what recovery does with a directory it cannot use. The cluster-level
// restart scenarios live in internal/cluster/durability_test.go.

// walBox is an application box type without a wire codec: it rides the 0x0F
// gob fallback into the log and back.
type walBox struct {
	Name  string
	Seats int
}

func init() { RegisterValue(walBox{}) }

func openDurable(t *testing.T, dir string) (*durable, *stm.Store) {
	t.Helper()
	store := stm.NewStore()
	d, err := newDurable(DurabilityConfig{Dir: dir, Fsync: "off", SnapshotEvery: -1}, store)
	if err != nil {
		t.Fatalf("newDurable: %v", err)
	}
	t.Cleanup(d.close)
	return d, store
}

// applyTo mirrors Replica.applyEntries: durability filter, then store install,
// under the shared apply barrier.
func applyTo(d *durable, store *stm.Store, entries ...applyWSEntry) []applyWSEntry {
	d.applyMu.RLock()
	defer d.applyMu.RUnlock()
	fresh := d.append(entries)
	for _, e := range fresh {
		store.ApplyWriteSet(e.TxnID, e.WS)
	}
	return fresh
}

func image(store *stm.Store) map[string]stm.Value {
	m := make(map[string]stm.Value)
	for _, b := range store.Snapshot().Boxes {
		m[b.Box] = b.Value
	}
	return m
}

// urb builds a URB-lane entry from writer 1 writing box k.
func urb(seq uint64, v stm.Value) applyWSEntry {
	return applyWSEntry{TxnID: stm.TxnID{Replica: 1, Seq: seq}, WS: stm.WriteSet{{Box: "k", Value: v}}}
}

// roundTripEntries is the round-trip fixture: every primitive value tag, a
// RegisterValue'd struct, an empty write-set and a TO-lane entry.
func roundTripEntries() []applyWSEntry {
	return []applyWSEntry{
		{TxnID: stm.TxnID{Replica: 0, Seq: 1}, LeaseID: lease.RequestID{Proc: 0, Seq: 4}, WS: stm.WriteSet{
			{Box: "nil", Value: nil},
			{Box: "true", Value: true},
			{Box: "false", Value: false},
			{Box: "int", Value: 7},
			{Box: "int-neg", Value: -300},
			{Box: "int-big", Value: 1 << 40},
			{Box: "int64", Value: int64(-9)},
			{Box: "uint64", Value: uint64(1) << 63},
			{Box: "float64", Value: 2.5},
			{Box: "string", Value: "s"},
			{Box: "bytes", Value: []byte{1, 2, 3}},
			{Box: "struct", Value: walBox{Name: "flight", Seats: 3}},
		}},
		{TxnID: stm.TxnID{Replica: 1, Seq: 5}},
		{TxnID: stm.TxnID{Replica: 1, Seq: 9}, Ord: 1, WS: stm.WriteSet{{Box: "to", Value: "certified"}}},
		{TxnID: stm.TxnID{Replica: 0, Seq: 2}, WS: stm.WriteSet{{Box: "other", Value: 1}}},
	}
}

// TestDurableWALFrameMatchesEncodeRecord: records encoded straight into the
// log's reused frame — a large one, then a smaller one over its leftovers —
// are byte for byte what framing a separately encoded payload gives, and
// decode back to the entries logged.
func TestDurableWALFrameMatchesEncodeRecord(t *testing.T) {
	dir := t.TempDir()
	d, _ := openDurable(t, dir)
	batches := [][]applyWSEntry{
		roundTripEntries(),
		{{TxnID: stm.TxnID{Replica: 0, Seq: 3}, WS: stm.WriteSet{{Box: "x", Value: 1}}}},
	}
	var want []byte
	for _, b := range batches {
		if fresh := d.append(b); len(fresh) != len(b) {
			t.Fatalf("%d of %d entries survived the filter", len(fresh), len(b))
		}
		payload, err := appendWALRecord(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, wal.EncodeRecord(payload)...)
	}
	d.close()
	got, err := os.ReadFile(wal.LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log holds\n %x\nwant\n %x", got, want)
	}
	for i, b := range batches {
		payload, n, ok := wal.DecodeRecord(got)
		if !ok {
			t.Fatalf("record %d does not decode", i)
		}
		entries, err := readWALRecord(payload)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(entries, b) {
			t.Fatalf("record %d decodes to\n %#v\nwant\n %#v", i, entries, b)
		}
		got = got[n:]
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := roundTripEntries()

	// Life 1: an initial member logs the fixture as one record.
	d, store := openDurable(t, dir)
	d.markComplete()
	if fresh := applyTo(d, store, entries...); len(fresh) != len(entries) {
		t.Fatalf("%d of %d entries survived the filter", len(fresh), len(entries))
	}
	wantImage, wantAdv := image(store), d.advertise()
	if want := map[transport.ID]uint64{0: 2, 1: 5, transport.Nobody: 1}; !reflect.DeepEqual(wantAdv, want) {
		t.Fatalf("advertises %v, want %v", wantAdv, want)
	}
	d.close()

	// Life 2: log-only recovery.
	d, store = openDurable(t, dir)
	if s := d.stats(); s.RecoveredFromSnapshot || s.ReplayedRecords != 1 || s.ReplayedEntries != 4 || s.Errors != 0 {
		t.Fatalf("log-only recovery: %+v", s)
	}
	if got := image(store); !reflect.DeepEqual(got, wantImage) {
		t.Fatalf("log-only recovery: store\n got  %#v\n want %#v", got, wantImage)
	}
	if got := d.advertise(); !reflect.DeepEqual(got, wantAdv) {
		t.Fatalf("log-only recovery: frontier %v, want %v", got, wantAdv)
	}
	d.snapshot(store)
	applyTo(d, store, applyWSEntry{TxnID: stm.TxnID{Replica: 0, Seq: 3}, WS: stm.WriteSet{{Box: "other", Value: 2}}})
	wantImage, wantAdv = image(store), d.advertise()
	d.close()

	// Life 3: snapshot + log suffix.
	d, store = openDurable(t, dir)
	if s := d.stats(); !s.RecoveredFromSnapshot || s.ReplayedRecords != 1 || s.ReplayedEntries != 1 || s.Errors != 0 {
		t.Fatalf("snapshot recovery: %+v", s)
	}
	if got := image(store); !reflect.DeepEqual(got, wantImage) {
		t.Fatalf("snapshot recovery: store\n got  %#v\n want %#v", got, wantImage)
	}
	if got := d.advertise(); !reflect.DeepEqual(got, wantAdv) {
		t.Fatalf("snapshot recovery: frontier %v, want %v", got, wantAdv)
	}
	d.close()

	// Life 4: a crash between the snapshot's rename and the log truncation
	// leaves a log whose records the new snapshot already covers; replay
	// reads them and applies none (the filter counts them as seen before).
	payload, err := appendWALSnapshot(nil, store.Snapshot(), wantAdv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(dir, payload); err != nil {
		t.Fatal(err)
	}
	d, store = openDurable(t, dir)
	if s := d.stats(); s.ReplayedRecords != 1 || s.ReplayedEntries != 0 || s.Errors != 0 ||
		s.FilteredSeen != 1 || s.FilteredNeverSeen != 0 {
		t.Fatalf("covered-record recovery: %+v", s)
	}
	if got := image(store); !reflect.DeepEqual(got, wantImage) {
		t.Fatalf("covered-record recovery: store\n got  %#v\n want %#v", got, wantImage)
	}
}

// TestDurableStatelessSnapshotStaysStateless: a snapshot taken before the
// store holds a complete state (a joiner before its transfer) must not turn
// the frontier advertisable across a restart; one taken by a full install
// advertises the installed frontier.
func TestDurableStatelessSnapshotStaysStateless(t *testing.T) {
	dir := t.TempDir()
	d, store := openDurable(t, dir)
	d.snapshot(store)
	d.close()

	d, store = openDurable(t, dir)
	if s := d.stats(); !s.RecoveredFromSnapshot || s.Errors != 0 {
		t.Fatalf("stateless snapshot not recovered: %+v", s)
	}
	if got := d.advertise(); got != nil {
		t.Fatalf("stateless snapshot advertises %v, want nil", got)
	}
	f := map[transport.ID]uint64{0: 12, 2: 31, transport.Nobody: 4}
	d.installFull(f, nil, store)
	d.close()

	d, _ = openDurable(t, dir)
	if got := d.advertise(); !reflect.DeepEqual(got, f) {
		t.Fatalf("installed state advertises %v, want %v", got, f)
	}
}

// gobStream returns a bare encoding/gob stream — what the parent build framed
// as a WAL record or snapshot payload — borrowed from the one place gob still
// lives: the wire codec's 0x0F fallback (tag byte, length, stream).
func gobStream(t testing.TB) []byte {
	t.Helper()
	b, err := wire.AppendAny(nil, walBox{Name: "written by the gob build"})
	if err != nil || b[0] != 0x0F {
		t.Fatalf("no gob fallback blob: % x, %v", b, err)
	}
	return wire.NewReader(b[1:]).Bytes()
}

// TestDurableRecoveryDiscards walks every way a CRC-intact durability
// directory can still be unusable. Each must end exactly as documented —
// stateless (directory wiped, store empty, nothing advertised) or on the
// intact log prefix with the tail truncated — and be counted in Errors.
func TestDurableRecoveryDiscards(t *testing.T) {
	record := func(entries ...applyWSEntry) []byte {
		p, err := appendWALRecord(nil, entries)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// snapshot is {k: 100} at writer 1's Seq 10.
	store := stm.StoreSnapshot{Clock: 3, Boxes: []stm.BoxState{
		{Box: "k", Writer: stm.TxnID{Replica: 1, Seq: 10}, Value: 100},
	}}
	front := map[transport.ID]uint64{1: 10, transport.Nobody: 0}
	snapshot, err := appendWALSnapshot(nil, store, front, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The 0xA1 layout, written by the build with shard groups: a shard number
	// on every record, a frontier count and one frontier per group in the
	// snapshot.
	recordA1 := func(entries ...applyWSEntry) []byte {
		p, err := appendWSEntries([]byte{0xA1, 0}, entries)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	snapshotA1, err := appendStoreSnapshot([]byte{0xA1}, store)
	if err != nil {
		t.Fatal(err)
	}
	snapshotA1 = appendFrontier(append(snapshotA1, 1), front)
	corruptFrame := wal.EncodeRecord(snapshot)
	corruptFrame[len(corruptFrame)-1] ^= 0xFF
	gobPayload := gobStream(t) // under the same CRC framing, as the parent build wrote it

	tests := []struct {
		name     string
		snapFile []byte   // raw snapshot file content; nil: none
		log      [][]byte // record payloads, framed by the test
		// keep < 0: stateless. Otherwise recovery stands on the snapshot plus
		// the first keep log records.
		keep      int
		wantK     stm.Value
		wantFront map[transport.ID]uint64
	}{
		{name: "corrupt snapshot frame", snapFile: corruptFrame,
			log: [][]byte{record(urb(11, 1))}, keep: -1},
		{name: "undecodable snapshot", snapFile: wal.EncodeRecord([]byte{walFormat, 0xFF, 0xFF}),
			log: [][]byte{record(urb(11, 1))}, keep: -1},
		{name: "gob-era snapshot and log", snapFile: wal.EncodeRecord(gobPayload),
			log: [][]byte{gobPayload, gobPayload}, keep: -1},
		{name: "0xA1 snapshot and log", snapFile: wal.EncodeRecord(snapshotA1),
			log: [][]byte{recordA1(urb(11, 1))}, keep: -1},
		{name: "snapshot with trailing bytes", snapFile: wal.EncodeRecord(append(snapshot, 0)),
			keep: -1},
		{name: "gob-era log, no snapshot",
			log: [][]byte{gobPayload, gobPayload}, keep: -1},
		{name: "0xA1 log, no snapshot",
			log: [][]byte{recordA1(urb(1, 1)), recordA1(urb(2, 2))}, keep: -1},
		{name: "undecodable record mid-log", snapFile: wal.EncodeRecord(snapshot),
			log:  [][]byte{record(urb(11, 1)), record(urb(12, 2)), {walFormat, 0xFF}, record(urb(13, 3))},
			keep: 2, wantK: 2, wantFront: map[transport.ID]uint64{1: 12, transport.Nobody: 0}},
		{name: "record with trailing bytes",
			log:  [][]byte{record(urb(1, 1)), append(record(urb(2, 2)), 0)},
			keep: 1, wantK: 1, wantFront: map[transport.ID]uint64{1: 1, transport.Nobody: 0}},
		{name: "gob-era record after a snapshot", snapFile: wal.EncodeRecord(snapshot),
			log:  [][]byte{gobPayload},
			keep: 0, wantK: 100, wantFront: map[transport.ID]uint64{1: 10, transport.Nobody: 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			if tt.snapFile != nil {
				if err := os.WriteFile(wal.SnapshotPath(dir), tt.snapFile, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var logFile []byte
			keepSize := 0
			for i, p := range tt.log {
				logFile = append(logFile, wal.EncodeRecord(p)...)
				if i < tt.keep {
					keepSize = len(logFile)
				}
			}
			if err := os.WriteFile(wal.LogPath(dir), logFile, 0o644); err != nil {
				t.Fatal(err)
			}

			d, store := openDurable(t, dir)
			if got := d.stats().Errors; got != 1 {
				t.Errorf("Errors = %d, want 1", got)
			}
			if st, err := os.Stat(wal.LogPath(dir)); err != nil {
				t.Error(err)
			} else if st.Size() != int64(keepSize) {
				t.Errorf("log after recovery: %d bytes, want %d", st.Size(), keepSize)
			}
			if tt.keep < 0 {
				if _, err := os.Stat(wal.SnapshotPath(dir)); !os.IsNotExist(err) {
					t.Errorf("snapshot file survived the discard (stat err %v)", err)
				}
				if got := image(store); len(got) != 0 {
					t.Errorf("store after discard = %v, want empty", got)
				}
				if f := d.advertise(); f != nil {
					t.Errorf("advertises %v after a discard, want nil", f)
				}
				if s := d.stats(); s.RecoveredFromSnapshot || s.ReplayedEntries != 0 {
					t.Errorf("discarded state still reported as recovered: %+v", s)
				}
				return
			}
			if got := image(store)["k"]; got != tt.wantK {
				t.Errorf("k = %v, want %v", got, tt.wantK)
			}
			if got := d.advertise(); !reflect.DeepEqual(got, tt.wantFront) {
				t.Errorf("advertise = %v, want %v", got, tt.wantFront)
			}
			// The tail is really gone: a record appended now is the next one
			// replayed, not hidden behind the one that stopped this replay.
			applyTo(d, store, urb(99, 99))
			d.close()
			d, store = openDurable(t, dir)
			if got := image(store)["k"]; got != 99 || d.stats().Errors != 0 {
				t.Errorf("after append + restart: k = %v, Errors = %d; want 99, 0", got, d.stats().Errors)
			}
		})
	}
}

// TestDurableFilterCounters drives both sides of alc_wal_filtered_total.
func TestDurableFilterCounters(t *testing.T) {
	newMem := func(retain int) (*durable, *stm.Store) {
		store := stm.NewStore()
		d, err := newDurable(DurabilityConfig{Retain: retain}, store)
		if err != nil {
			t.Fatal(err)
		}
		d.markComplete()
		return d, store
	}
	filtered := func(d *durable) [2]int64 {
		s := d.stats()
		return [2]int64{s.FilteredSeen, s.FilteredNeverSeen}
	}

	// A delta install over a stale advertised frontier: the joiner's joinReq
	// went out at Seq 3, URB deliveries 4 and 5 kept flowing, and the
	// coordinator's delta (everything past 3) re-ships them.
	coord, coordStore := newMem(0)
	joiner, joinerStore := newMem(0)
	for seq := uint64(1); seq <= 8; seq++ {
		applyTo(coord, coordStore, urb(seq, int(seq)))
	}
	for seq := uint64(1); seq <= 3; seq++ {
		applyTo(joiner, joinerStore, urb(seq, int(seq)))
	}
	stale := joiner.advertise()
	applyTo(joiner, joinerStore, urb(4, 4), urb(5, 5))
	delta, why := coord.delta(stale)
	if why != deltaServed || len(delta) != 5 {
		t.Fatalf("delta past %v = %d entries, declined %d; want 5", stale, len(delta), why)
	}
	if fresh := applyTo(joiner, joinerStore, delta...); len(fresh) != 3 {
		t.Fatalf("delta install applied %d entries, want 3 (6..8)", len(fresh))
	}
	if got := filtered(joiner); got != [2]int64{2, 0} {
		t.Fatalf("delta over a stale frontier: filtered seen/never = %v, want [2 0]", got)
	}
	if got := image(joinerStore)["k"]; got != 8 {
		t.Fatalf("joiner k = %v, want 8", got)
	}

	// The lost-commit signature (ROADMAP P0(1)): Seq 9 overtaken by Seq 10.
	applyTo(joiner, joinerStore, urb(10, 10))
	if fresh := applyTo(joiner, joinerStore, urb(9, 9)); len(fresh) != 0 {
		t.Fatalf("overtaken entry was applied")
	}
	if got := filtered(joiner); got != [2]int64{2, 1} {
		t.Fatalf("overtaken entry: filtered seen/never = %v, want [2 1]", got)
	}

	// Duplicates already evicted from a 2-entry window are still "seen"
	// (at/below the eviction watermark), on both lanes.
	small, smallStore := newMem(2)
	to := func(ord int64) applyWSEntry {
		e := urb(uint64(100+ord), int(ord))
		e.Ord = ord
		return e
	}
	applyTo(small, smallStore, urb(1, 1), urb(2, 2), to(1), to(2), urb(3, 3))
	applyTo(small, smallStore, urb(1, 1), to(1), to(2), urb(3, 3))
	if got := filtered(small); got != [2]int64{4, 0} {
		t.Fatalf("evicted duplicates: filtered seen/never = %v, want [4 0]", got)
	}
}

// TestDurableRetainedWindowWrapsAround pushes 11 entries from two writers and
// the TO lane through a 4-entry window, so the circular buffer wraps almost
// three times, and after every entry compares what its readers see — seen for
// every entry so far (newest first inside), the delta for every joiner
// frontier (oldest first), the eviction watermarks, the RetainedEntries gauge
// — with a plain slice that drops its first element.
func TestDurableRetainedWindowWrapsAround(t *testing.T) {
	const retain = 4
	store := stm.NewStore()
	d, err := newDurable(DurabilityConfig{Retain: retain}, store)
	if err != nil {
		t.Fatal(err)
	}
	d.markComplete()
	sh := &d.applied

	entry := func(w transport.ID, seq uint64, ord int64) applyWSEntry {
		e := applyWSEntry{TxnID: stm.TxnID{Replica: w, Seq: seq}, Ord: ord}
		e.WS = stm.WriteSet{{Box: fmt.Sprintf("w%d", w), Value: int(seq)}}
		return e
	}
	schedule := []applyWSEntry{
		entry(1, 1, 0), entry(2, 1, 0), entry(1, 101, 1), entry(1, 2, 0), entry(1, 3, 0), entry(2, 102, 2),
		entry(2, 2, 0), entry(1, 4, 0), entry(1, 103, 3), entry(2, 3, 0), entry(1, 5, 0),
	}

	var window []applyWSEntry // the model: oldest first
	evicted, evictedTO := map[transport.ID]uint64{}, int64(0)
	front, frontTO := map[transport.ID]uint64{}, int64(0)
	for n, e := range schedule {
		if fresh := applyTo(d, store, e); len(fresh) != 1 {
			t.Fatalf("entry %d filtered", n)
		}
		if window = append(window, e); len(window) > retain {
			old := window[0]
			window = window[1:]
			if old.Ord > 0 {
				evictedTO = old.Ord
			} else {
				evicted[old.TxnID.Replica] = old.TxnID.Seq
			}
		}
		if e.Ord > 0 {
			frontTO = e.Ord
		} else {
			front[e.TxnID.Replica] = e.TxnID.Seq
		}

		if got := d.stats().RetainedEntries; got != int64(len(window)) {
			t.Fatalf("after entry %d: RetainedEntries = %d, want %d", n, got, len(window))
		}
		if !reflect.DeepEqual(sh.evicted, evicted) || sh.evictedTO != evictedTO {
			t.Fatalf("after entry %d: watermarks %v / %d, want %v / %d", n, sh.evicted, sh.evictedTO, evicted, evictedTO)
		}
		for i := range window {
			if got := *sh.at(i); !reflect.DeepEqual(got, window[i]) {
				t.Fatalf("after entry %d: at(%d) = %+v, want %+v", n, i, got, window[i])
			}
		}
		// Everything pushed so far was seen; the entries still to come were not.
		for i, x := range schedule {
			if got := sh.seen(x); got != (i <= n) {
				t.Fatalf("after entry %d: seen(entry %d) = %t", n, i, got)
			}
		}
		for a := uint64(0); a <= 6; a++ {
			for b := uint64(0); b <= 4; b++ {
				for c := int64(0); c <= 4; c++ {
					f := map[transport.ID]uint64{1: a, 2: b, transport.Nobody: uint64(c)}
					wantOK := a <= front[1] && b <= front[2] && c <= frontTO &&
						evicted[1] <= a && evicted[2] <= b && evictedTO <= c
					var want []applyWSEntry
					for _, x := range window {
						if wantOK && (x.Ord > c || (x.Ord == 0 && x.TxnID.Seq > f[x.TxnID.Replica])) {
							want = append(want, x)
						}
					}
					got, why := d.delta(f)
					if ok := why == deltaServed; ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("after entry %d: delta(%v) = %+v, declined %d; want %+v, %t", n, f, got, why, want, wantOK)
					}
				}
			}
		}
	}
	if sh.head == 0 || len(sh.ring) != retain {
		t.Fatalf("the window did not wrap: head %d, len %d", sh.head, len(sh.ring))
	}
}

// FuzzWALPayload feeds arbitrary bytes — what a CRC-intact but foreign or
// damaged record or snapshot hands recovery — to both payload decoders. They
// must never panic, never size anything past the input's length (the
// wire.Reader.Count bound), and whatever decodes must re-encode to a payload
// that decodes to the same value.
func FuzzWALPayload(f *testing.F) {
	p, err := appendWALRecord(nil, roundTripEntries())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p)
	snap, err := appendWALSnapshot(nil, stm.StoreSnapshot{Clock: 88, Boxes: []stm.BoxState{
		{Box: "acct:1", Writer: stm.TxnID{Replica: 2, Seq: 31}, Value: 100},
		{Box: "struct", Value: walBox{Name: "car", Seats: 4}},
	}}, map[transport.ID]uint64{0: 12, 2: 31, transport.Nobody: 4}, []int64{7, 9})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	// A 0xA1 record and snapshot, as the build with shard groups wrote them.
	recordA1, err := appendWSEntries([]byte{0xA1, 0}, roundTripEntries())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recordA1)
	snapA1, err := appendStoreSnapshot([]byte{0xA1}, stm.StoreSnapshot{Clock: 88})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFrontier(append(snapA1, 1), map[transport.ID]uint64{0: 12, transport.Nobody: 4}))
	f.Add(gobStream(f))
	f.Add([]byte{walFormat})
	f.Add([]byte{})

	isNaN := func(v stm.Value) bool {
		x, ok := v.(float64)
		return ok && x != x // NaN != NaN would fail DeepEqual on a faithful round trip
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if entries, err := readWALRecord(data); err == nil {
			writes := 0
			for _, e := range entries {
				writes += len(e.WS)
				for _, w := range e.WS {
					if isNaN(w.Value) {
						t.Skip()
					}
				}
			}
			if len(entries) > len(data) || writes > len(data) {
				t.Fatalf("%d entries / %d writes decoded from %d bytes", len(entries), writes, len(data))
			}
			again, err := appendWALRecord(nil, entries)
			if err != nil {
				t.Fatalf("re-encode record: %v", err)
			}
			entries2, err := readWALRecord(again)
			if err != nil || !reflect.DeepEqual(entries2, entries) {
				t.Fatalf("record round trip: err %v\n got  %#v\n want %#v", err, entries2, entries)
			}
		}
		if store, front, above, err := readWALSnapshot(data); err == nil {
			if sized := len(store.Boxes) + len(front) + len(above); sized > len(data) {
				t.Fatalf("%d boxes, %d frontier entries, %d TO ordinals decoded from %d bytes",
					len(store.Boxes), len(front), len(above), len(data))
			}
			for _, b := range store.Boxes {
				if isNaN(b.Value) {
					t.Skip()
				}
			}
			again, err := appendWALSnapshot(nil, store, front, above)
			if err != nil {
				t.Fatalf("re-encode snapshot: %v", err)
			}
			store2, front2, above2, err := readWALSnapshot(again)
			if err != nil || !reflect.DeepEqual(store2, store) || !reflect.DeepEqual(front2, front) ||
				!reflect.DeepEqual(above2, above) {
				t.Fatalf("snapshot round trip: err %v\n got  %#v %v %v\n want %#v %v %v",
					err, store2, front2, above2, store, front, above)
			}
		}
	})
}

// TestDurableDeltaDeclineReasons drives each rule that makes delta demand a
// full transfer, and checks that exactly that reason is counted in WALStats
// (alc_wal_delta_declined_total) while a served delta counts none.
func TestDurableDeltaDeclineReasons(t *testing.T) {
	// A 4-entry window over URB entries 1-9 from writer 1 and TO-lane
	// payloads at positions 1-2, pushed 1-6, p1, p2, 7-9: the window keeps
	// p2 and 7-9, so writer 1 is evicted through 6 and the TO lane through p1.
	build := func(t *testing.T) (*durable, int64) {
		store := stm.NewStore()
		d, err := newDurable(DurabilityConfig{Retain: 4}, store)
		if err != nil {
			t.Fatal(err)
		}
		d.markComplete()
		d.openTOEpoch()
		base := d.payloadOrd(0)
		payload := func(pos uint64) applyWSEntry {
			return applyWSEntry{TxnID: stm.TxnID{Replica: 2, Seq: pos}, Ord: d.payloadOrd(pos),
				WS: stm.WriteSet{{Box: "p", Value: int(pos)}}}
		}
		for seq := uint64(1); seq <= 6; seq++ {
			applyTo(d, store, urb(seq, int(seq)))
		}
		applyTo(d, store, payload(1), payload(2))
		for seq := uint64(7); seq <= 9; seq++ {
			applyTo(d, store, urb(seq, int(seq)))
		}
		return d, base
	}
	for _, tc := range []struct {
		name   string
		w1, to int64 // the joiner's frontier: writer 1, and TO relative to the epoch base
		epoch0 bool  // TO ordinal in epoch 0 instead of the current one
		want   declineReason
	}{
		{name: "served", w1: 6, to: 1, want: deltaServed},
		{name: "ahead/writer", w1: 10, to: 2, want: declineAhead},
		{name: "ahead/to", w1: 9, to: 3, want: declineAhead},
		{name: "epoch", w1: 9, to: 2, epoch0: true, want: declineEpoch},
		{name: "evicted/writer", w1: 5, to: 2, want: declineEvicted},
		{name: "evicted/to", w1: 9, to: 0, want: declineEvicted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, base := build(t)
			fTO := base + tc.to
			if tc.epoch0 {
				fTO = tc.to
			}
			f := map[transport.ID]uint64{1: uint64(tc.w1), transport.Nobody: uint64(fTO)}
			got, why := d.delta(f)
			if why != tc.want {
				t.Fatalf("delta(%v) declined %d, want %d", f, why, tc.want)
			}
			if why == deltaServed && len(got) != 4 {
				t.Fatalf("delta(%v) = %d entries, want 4 (p2, 7-9)", f, len(got))
			}
			var want DeltaDeclines
			switch tc.want {
			case declineAhead:
				want.Ahead = 1
			case declineEpoch:
				want.Epoch = 1
			case declineEvicted:
				want.Evicted = 1
			}
			if s := d.stats().DeltaDeclined; s != want {
				t.Fatalf("DeltaDeclined = %+v, want %+v", s, want)
			}
		})
	}
}

// TestDurableDeltaRefusesAdoptedTOEntries: a full transfer (or a WAL
// snapshot) brings in TO-lane entries applied past its TO frontier — §4.5(c)
// payloads enabled out of position order — without putting them in the delta
// window. A joiner that may lack one must get a full transfer: a delta cut
// from the window would silently omit it.
func TestDurableDeltaRefusesAdoptedTOEntries(t *testing.T) {
	d, store := openDurable(t, "")
	d.installFull(map[transport.ID]uint64{transport.Nobody: 58}, []int64{60, 74}, store)
	if _, why := d.delta(map[transport.ID]uint64{transport.Nobody: 62}); why == deltaServed {
		t.Fatal("delta served to a joiner at TO 62 although entry 74 is absorbed but not retained")
	}
	// Entries applied after the install are retained and served as usual.
	d.resolvePayloads(74)
	applyTo(d, store, applyWSEntry{TxnID: stm.TxnID{Replica: 1, Seq: 9}, Ord: 75,
		WS: stm.WriteSet{{Box: "k", Value: 1}}})
	got, why := d.delta(map[transport.ID]uint64{transport.Nobody: 74})
	if why != deltaServed || len(got) != 1 || got[0].Ord != 75 {
		t.Fatalf("delta for a joiner at TO 74 = %v, declined %d; want entry 75", got, why)
	}
}

// TestDurableTOEpochs: lease positions restart at 1 when the whole group
// starts afresh from its durability directories, so an initial member opens a
// new TO-lane epoch over its recovered frontier. The new group's payloads are
// not filtered as absorbed, a log replay across the restart lands in the later
// epoch, and a joiner advertising a frontier of an older epoch is sent a full
// transfer.
func TestDurableTOEpochs(t *testing.T) {
	dir := t.TempDir()
	d, store := openDurable(t, dir)
	payload := func(pos uint64, v int) applyWSEntry {
		return applyWSEntry{TxnID: stm.TxnID{Replica: 2, Seq: uint64(v)}, Ord: d.payloadOrd(pos),
			WS: stm.WriteSet{{Box: "p", Value: v}}}
	}

	// Life 1: an initial member applies the payloads at positions 1-5.
	d.markComplete()
	d.openTOEpoch()
	for pos := uint64(1); pos <= 5; pos++ {
		applyTo(d, store, payload(pos, int(pos)))
	}
	d.resolvePayloads(6)
	old := d.advertise()
	d.close()

	// Life 2: the group restarts; its lease positions begin again at 1.
	d, store = openDurable(t, dir)
	if got := d.advertise(); !reflect.DeepEqual(got, map[transport.ID]uint64{transport.Nobody: old[transport.Nobody] - 1}) {
		t.Fatalf("log replay recovered TO frontier %v, want the last applied payload of %v", got, old)
	}
	d.openTOEpoch()
	if fresh := applyTo(d, store, payload(1, 10)); len(fresh) != 1 {
		t.Fatal("the restarted group's first payload was filtered as already absorbed")
	}
	if got := image(store)["p"]; got != 10 {
		t.Fatalf("p = %v, want 10", got)
	}
	if _, why := d.delta(old); why != declineEpoch {
		t.Fatal("delta served to a joiner whose TO lane is from the previous epoch")
	}
	cur := d.advertise()
	d.close()

	// Life 3: replaying both lives' records ends in the second epoch.
	d, _ = openDurable(t, dir)
	if got := d.advertise(); !reflect.DeepEqual(got, cur) {
		t.Fatalf("replay across the restart advertises %v, want %v", got, cur)
	}
	if s := d.stats(); s.ReplayedEntries != 6 || s.FilteredSeen+s.FilteredNeverSeen != 0 {
		t.Fatalf("replay across the restart: %+v", s)
	}
}
