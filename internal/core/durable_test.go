package core

import (
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

func openDurable(t *testing.T, dir string, shards int) (*durable, *stm.Store) {
	t.Helper()
	store := stm.NewStore()
	d, err := newDurable(DurabilityConfig{Dir: dir, Fsync: "off", SnapshotEvery: -1}, store, shards)
	if err != nil {
		t.Fatalf("newDurable: %v", err)
	}
	t.Cleanup(d.close)
	return d, store
}

// applyTo mirrors Replica.applyEntries: durability filter, then store install,
// under the shared apply barrier.
func applyTo(d *durable, store *stm.Store, shard int, entries ...applyWSEntry) []applyWSEntry {
	d.applyMu.RLock()
	defer d.applyMu.RUnlock()
	fresh := d.append(shard, entries)
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

func advertiseAll(d *durable) []map[transport.ID]uint64 {
	out := make([]map[transport.ID]uint64, len(d.shards))
	for i := range out {
		out[i] = d.advertise(i)
	}
	return out
}

// urb builds a URB-lane entry from writer 1 writing box k.
func urb(seq uint64, v stm.Value) applyWSEntry {
	return applyWSEntry{TxnID: stm.TxnID{Replica: 1, Seq: seq}, WS: stm.WriteSet{{Box: "k", Value: v}}}
}

// roundTripShards is the round-trip fixture, one entry list per shard of an
// S=2 replica: every primitive value tag, a RegisterValue'd struct, an empty
// write-set and a TO-lane entry.
func roundTripShards() [2][]applyWSEntry {
	return [2][]applyWSEntry{
		{
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
		},
		{
			{TxnID: stm.TxnID{Replica: 0, Seq: 2}, WS: stm.WriteSet{{Box: "other", Value: 1}}},
		},
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	shards := roundTripShards()

	// Life 1: an initial member logs the fixture, one record per shard.
	d, store := openDurable(t, dir, 2)
	d.markComplete()
	for shard, entries := range shards {
		if fresh := applyTo(d, store, shard, entries...); len(fresh) != len(entries) {
			t.Fatalf("shard %d: %d of %d entries survived the filter", shard, len(fresh), len(entries))
		}
	}
	wantImage, wantAdv := image(store), advertiseAll(d)
	if want := map[transport.ID]uint64{0: 1, 1: 5, transport.Nobody: 1}; !reflect.DeepEqual(wantAdv[0], want) {
		t.Fatalf("shard 0 advertises %v, want %v", wantAdv[0], want)
	}
	d.close()

	// Life 2: log-only recovery.
	d, store = openDurable(t, dir, 2)
	if s := d.stats(); s.RecoveredFromSnapshot || s.ReplayedRecords != 2 || s.ReplayedEntries != 4 || s.Errors != 0 {
		t.Fatalf("log-only recovery: %+v", s)
	}
	if got := image(store); !reflect.DeepEqual(got, wantImage) {
		t.Fatalf("log-only recovery: store\n got  %#v\n want %#v", got, wantImage)
	}
	if got := advertiseAll(d); !reflect.DeepEqual(got, wantAdv) {
		t.Fatalf("log-only recovery: frontiers %v, want %v", got, wantAdv)
	}
	d.snapshot(store)
	applyTo(d, store, 1, applyWSEntry{TxnID: stm.TxnID{Replica: 0, Seq: 3}, WS: stm.WriteSet{{Box: "other", Value: 2}}})
	wantImage, wantAdv = image(store), advertiseAll(d)
	d.close()

	// Life 3: snapshot + log suffix.
	d, store = openDurable(t, dir, 2)
	if s := d.stats(); !s.RecoveredFromSnapshot || s.ReplayedRecords != 1 || s.ReplayedEntries != 1 || s.Errors != 0 {
		t.Fatalf("snapshot recovery: %+v", s)
	}
	if got := image(store); !reflect.DeepEqual(got, wantImage) {
		t.Fatalf("snapshot recovery: store\n got  %#v\n want %#v", got, wantImage)
	}
	if got := advertiseAll(d); !reflect.DeepEqual(got, wantAdv) {
		t.Fatalf("snapshot recovery: frontiers %v, want %v", got, wantAdv)
	}
	d.close()

	// Life 4: a crash between the snapshot's rename and the log truncation
	// leaves a log whose records the new snapshot already covers; replay
	// reads them and applies none (the filter counts them as seen before).
	payload, err := appendWALSnapshot(nil, store.Snapshot(), wantAdv)
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(dir, payload); err != nil {
		t.Fatal(err)
	}
	d, store = openDurable(t, dir, 2)
	if s := d.stats(); s.ReplayedRecords != 1 || s.ReplayedEntries != 0 || s.Errors != 0 ||
		s.FilteredSeen != 1 || s.FilteredNeverSeen != 0 {
		t.Fatalf("covered-record recovery: %+v", s)
	}
	if got := image(store); !reflect.DeepEqual(got, wantImage) {
		t.Fatalf("covered-record recovery: store\n got  %#v\n want %#v", got, wantImage)
	}
}

// TestDurableSnapshotKeepsStatelessShard: a snapshot taken while one shard
// group has not installed its state yet (a joiner between two shards' full
// transfers) must not turn that shard advertisable across a restart.
func TestDurableSnapshotKeepsStatelessShard(t *testing.T) {
	dir := t.TempDir()
	d, store := openDurable(t, dir, 2)
	f := map[transport.ID]uint64{0: 12, 2: 31, transport.Nobody: 4}
	d.installFull(0, f, store)
	d.close()

	d, _ = openDurable(t, dir, 2)
	if got := d.advertise(0); !reflect.DeepEqual(got, f) {
		t.Fatalf("installed shard advertises %v, want %v", got, f)
	}
	if got := d.advertise(1); got != nil {
		t.Fatalf("stateless shard advertises %v, want nil", got)
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
	record := func(shard int, entries ...applyWSEntry) []byte {
		p, err := appendWALRecord(nil, shard, entries)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// snapshot is {k: 100} at writer 1's Seq 10 on every one of n shards.
	snapshot := func(n int) []byte {
		fronts := make([]map[transport.ID]uint64, n)
		for i := range fronts {
			fronts[i] = map[transport.ID]uint64{1: 10, transport.Nobody: 0}
		}
		p, err := appendWALSnapshot(nil, stm.StoreSnapshot{Clock: 3, Boxes: []stm.BoxState{
			{Box: "k", Writer: stm.TxnID{Replica: 1, Seq: 10}, Value: 100},
		}}, fronts)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	corruptFrame := wal.EncodeRecord(snapshot(1))
	corruptFrame[len(corruptFrame)-1] ^= 0xFF
	gobPayload := gobStream(t) // under the same CRC framing, as the parent build wrote it

	tests := []struct {
		name     string
		shards   int
		snapFile []byte   // raw snapshot file content; nil: none
		log      [][]byte // record payloads, framed by the test
		// keep < 0: stateless. Otherwise recovery stands on the snapshot plus
		// the first keep log records.
		keep      int
		wantK     stm.Value
		wantFront map[transport.ID]uint64
	}{
		{name: "corrupt snapshot frame", shards: 1, snapFile: corruptFrame,
			log: [][]byte{record(0, urb(11, 1))}, keep: -1},
		{name: "undecodable snapshot", shards: 1, snapFile: wal.EncodeRecord([]byte{walFormat, 0xFF, 0xFF}),
			log: [][]byte{record(0, urb(11, 1))}, keep: -1},
		{name: "gob-era snapshot and log", shards: 1, snapFile: wal.EncodeRecord(gobPayload),
			log: [][]byte{gobPayload, gobPayload}, keep: -1},
		{name: "snapshot from another shard count", shards: 2, snapFile: wal.EncodeRecord(snapshot(1)),
			log: [][]byte{record(0, urb(11, 1))}, keep: -1},
		{name: "snapshot with trailing bytes", shards: 1, snapFile: wal.EncodeRecord(append(snapshot(1), 0)),
			keep: -1},
		{name: "gob-era log, no snapshot", shards: 1,
			log: [][]byte{gobPayload, gobPayload}, keep: -1},
		{name: "record for a shard that does not exist", shards: 1,
			log: [][]byte{record(0, urb(1, 1)), record(1, urb(2, 2))}, keep: -1},
		{name: "undecodable record mid-log", shards: 1, snapFile: wal.EncodeRecord(snapshot(1)),
			log:  [][]byte{record(0, urb(11, 1)), record(0, urb(12, 2)), {walFormat, 0, 0xFF}, record(0, urb(13, 3))},
			keep: 2, wantK: 2, wantFront: map[transport.ID]uint64{1: 12, transport.Nobody: 0}},
		{name: "record with trailing bytes", shards: 1,
			log:  [][]byte{record(0, urb(1, 1)), append(record(0, urb(2, 2)), 0)},
			keep: 1, wantK: 1, wantFront: map[transport.ID]uint64{1: 1, transport.Nobody: 0}},
		{name: "gob-era record after a snapshot", shards: 1, snapFile: wal.EncodeRecord(snapshot(1)),
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

			d, store := openDurable(t, dir, tt.shards)
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
				for i, f := range advertiseAll(d) {
					if f != nil {
						t.Errorf("shard %d advertises %v after a discard, want nil", i, f)
					}
				}
				if s := d.stats(); s.RecoveredFromSnapshot || s.ReplayedEntries != 0 {
					t.Errorf("discarded state still reported as recovered: %+v", s)
				}
				return
			}
			if got := image(store)["k"]; got != tt.wantK {
				t.Errorf("k = %v, want %v", got, tt.wantK)
			}
			if got := d.advertise(0); !reflect.DeepEqual(got, tt.wantFront) {
				t.Errorf("advertise = %v, want %v", got, tt.wantFront)
			}
			// The tail is really gone: a record appended now is the next one
			// replayed, not hidden behind the one that stopped this replay.
			applyTo(d, store, 0, urb(99, 99))
			d.close()
			d, store = openDurable(t, dir, tt.shards)
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
		d, err := newDurable(DurabilityConfig{Retain: retain}, store, 1)
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
		applyTo(coord, coordStore, 0, urb(seq, int(seq)))
	}
	for seq := uint64(1); seq <= 3; seq++ {
		applyTo(joiner, joinerStore, 0, urb(seq, int(seq)))
	}
	stale := joiner.advertise(0)
	applyTo(joiner, joinerStore, 0, urb(4, 4), urb(5, 5))
	delta, ok := coord.delta(0, stale)
	if !ok || len(delta) != 5 {
		t.Fatalf("delta past %v = %d entries, ok=%v; want 5", stale, len(delta), ok)
	}
	if fresh := applyTo(joiner, joinerStore, 0, delta...); len(fresh) != 3 {
		t.Fatalf("delta install applied %d entries, want 3 (6..8)", len(fresh))
	}
	if got := filtered(joiner); got != [2]int64{2, 0} {
		t.Fatalf("delta over a stale frontier: filtered seen/never = %v, want [2 0]", got)
	}
	if got := image(joinerStore)["k"]; got != 8 {
		t.Fatalf("joiner k = %v, want 8", got)
	}

	// The lost-commit signature (ROADMAP P0(1)): Seq 9 overtaken by Seq 10.
	applyTo(joiner, joinerStore, 0, urb(10, 10))
	if fresh := applyTo(joiner, joinerStore, 0, urb(9, 9)); len(fresh) != 0 {
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
	applyTo(small, smallStore, 0, urb(1, 1), urb(2, 2), to(1), to(2), urb(3, 3))
	applyTo(small, smallStore, 0, urb(1, 1), to(1), to(2), urb(3, 3))
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
	d, err := newDurable(DurabilityConfig{Retain: retain}, store, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.markComplete()
	sh := &d.shards[0]

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
		if fresh := applyTo(d, store, 0, e); len(fresh) != 1 {
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
					got, ok := d.delta(0, f)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("after entry %d: delta(%v) = %+v, %t; want %+v, %t", n, f, got, ok, want, wantOK)
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
	for shard, entries := range roundTripShards() {
		p, err := appendWALRecord(nil, shard, entries)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	snap, err := appendWALSnapshot(nil, stm.StoreSnapshot{Clock: 88, Boxes: []stm.BoxState{
		{Box: "acct:1", Writer: stm.TxnID{Replica: 2, Seq: 31}, Value: 100},
		{Box: "struct", Value: walBox{Name: "car", Seats: 4}},
	}}, []map[transport.ID]uint64{{0: 12, 2: 31, transport.Nobody: 4}, nil})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(gobStream(f))
	f.Add([]byte{walFormat})
	f.Add([]byte{})

	isNaN := func(v stm.Value) bool {
		x, ok := v.(float64)
		return ok && x != x // NaN != NaN would fail DeepEqual on a faithful round trip
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if shard, entries, err := readWALRecord(data); err == nil {
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
			again, err := appendWALRecord(nil, shard, entries)
			if err != nil {
				t.Fatalf("re-encode record: %v", err)
			}
			shard2, entries2, err := readWALRecord(again)
			if err != nil || shard2 != shard || !reflect.DeepEqual(entries2, entries) {
				t.Fatalf("record round trip: shard %d→%d, err %v\n got  %#v\n want %#v", shard, shard2, err, entries2, entries)
			}
		}
		if store, fronts, err := readWALSnapshot(data); err == nil {
			sized := len(store.Boxes) + len(fronts)
			for _, fr := range fronts {
				sized += len(fr)
			}
			if sized > len(data) {
				t.Fatalf("%d boxes, %d frontiers decoded from %d bytes", len(store.Boxes), len(fronts), len(data))
			}
			for _, b := range store.Boxes {
				if isNaN(b.Value) {
					t.Skip()
				}
			}
			again, err := appendWALSnapshot(nil, store, fronts)
			if err != nil {
				t.Fatalf("re-encode snapshot: %v", err)
			}
			store2, fronts2, err := readWALSnapshot(again)
			if err != nil || !reflect.DeepEqual(store2, store) || !reflect.DeepEqual(fronts2, fronts) {
				t.Fatalf("snapshot round trip: err %v\n got  %#v %v\n want %#v %v", err, store2, fronts2, store, fronts)
			}
		}
	})
}
