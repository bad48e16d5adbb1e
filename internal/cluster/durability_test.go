package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/wal"
	"github.com/alcstm/alc/internal/wire"
)

func init() {
	// memnet never serializes; the codecs are registered only so the
	// transfer-size gauges (WALStats.LastDeltaBytes/LastFullBytes) can
	// measure. The WAL needs nothing: int and []byte box values are wire
	// primitives.
	core.RegisterWire()
}

// newDurableCluster builds a cluster persisting under a fresh temp root.
func newDurableCluster(t *testing.T, n int, dur core.DurabilityConfig) (*Cluster, string) {
	t.Helper()
	root := t.TempDir()
	dur.Dir = root
	if dur.Fsync == "" {
		// Process-crash durability is what these tests exercise; skipping
		// fsync keeps them fast without weakening what they prove.
		dur.Fsync = "off"
	}
	c, err := New(Config{
		N:          n,
		Core:       core.Config{Protocol: core.ProtocolALC, GCEvery: -1},
		Net:        memnet.Config{Latency: 500 * time.Microsecond},
		GCS:        testGCS(),
		Seed:       map[string]stm.Value{"counter": 0, "a": 0, "b": 0},
		Durability: dur,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c, root
}

// commitN applies n serial increments spread across the live replicas.
func commitN(t *testing.T, c *Cluster, box string, n int) {
	t.Helper()
	live := c.Replicas()
	for i := 0; i < n; i++ {
		r := live[i%len(live)]
		if err := r.Atomic(increment(box)); err != nil {
			t.Fatalf("increment %d on replica %d: %v", i, r.ID(), err)
		}
	}
}

// waitRejoined blocks until replica i is back in the primary component.
func waitRejoined(t *testing.T, c *Cluster, i int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if r := c.Replica(i); r != nil && r.InPrimary() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d never rejoined the primary component", i)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDurableRestartDeltaTransfer is the tentpole scenario: a crashed
// replica recovers from its snapshot + WAL locally and rejoins through a
// delta state transfer — the coordinator ships only the commit suffix, never
// the full StateSnapshot.
func TestDurableRestartDeltaTransfer(t *testing.T) {
	c, _ := newDurableCluster(t, 3, core.DurabilityConfig{})
	commitN(t, c, "counter", 50)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Crash(2)
	commitN(t, c, "counter", 30)

	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitRejoined(t, c, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	r2 := c.Replica(2)
	s2 := r2.Stats().WAL
	if !s2.RecoveredFromSnapshot {
		t.Errorf("restarted replica did not recover from its snapshot")
	}
	if s2.ReplayedEntries == 0 {
		t.Errorf("restarted replica replayed no WAL entries")
	}
	if s2.DeltaInstalled == 0 {
		t.Errorf("restarted replica installed no delta (stats: %+v)", s2)
	}
	if s2.FullInstalled != 0 {
		t.Errorf("restarted replica took a full state transfer despite local recovery (stats: %+v)", s2)
	}
	s0 := c.Replica(0).Stats().WAL
	if s0.DeltasServed == 0 {
		t.Errorf("coordinator served no delta (stats: %+v)", s0)
	}
	if s0.FullsServed != 0 {
		t.Errorf("coordinator captured a full StateSnapshot for a delta-eligible joiner (stats: %+v)", s0)
	}

	if got := readBox(t, r2, "counter"); got != 80 {
		t.Fatalf("recovered replica: counter = %v, want 80", got)
	}
	if diff := c.CheckHistories(); diff != "" {
		t.Fatalf("history divergence after delta rejoin: %s", diff)
	}
	if s2.Errors != 0 || s0.Errors != 0 {
		t.Errorf("durability errors: joiner=%d coordinator=%d", s2.Errors, s0.Errors)
	}
}

// TestDurableDeltaSmallerThanFull compares the two transfer paths on the
// same cluster: the delta a recovered replica receives must be measurably
// smaller than the full snapshot a stateless replica receives.
func TestDurableDeltaSmallerThanFull(t *testing.T) {
	c, root := newDurableCluster(t, 3, core.DurabilityConfig{})
	// Give the store real bulk so a full snapshot is much bigger than a
	// short commit suffix.
	bulk := make([]byte, 256)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	for i := 0; i < 32; i++ {
		box := fmt.Sprintf("bulk%02d", i)
		if err := c.Replica(0).Atomic(func(tx *stm.Txn) error {
			return tx.Write(box, bulk)
		}); err != nil {
			t.Fatalf("bulk write %s: %v", box, err)
		}
	}
	commitN(t, c, "counter", 60)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Round 1: crash, short gap, restart with state → delta.
	c.Crash(2)
	commitN(t, c, "counter", 10)
	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitRejoined(t, c, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	deltaBytes := c.Replica(0).Stats().WAL.LastDeltaBytes
	if deltaBytes == 0 {
		t.Fatalf("no delta transfer recorded (coordinator stats: %+v)", c.Replica(0).Stats().WAL)
	}

	// Round 2: crash and wipe the durability directory → stateless restart,
	// full transfer.
	c.Crash(2)
	commitN(t, c, "counter", 10)
	if err := os.RemoveAll(filepath.Join(root, "r2")); err != nil {
		t.Fatalf("wipe r2 state: %v", err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitRejoined(t, c, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s0 := c.Replica(0).Stats().WAL
	if s0.FullsServed == 0 || s0.LastFullBytes == 0 {
		t.Fatalf("stateless restart did not take a full transfer (coordinator stats: %+v)", s0)
	}
	if s2 := c.Replica(2).Stats().WAL; s2.FullInstalled == 0 {
		t.Fatalf("restarted replica did not record the full install (stats: %+v)", s2)
	}

	if deltaBytes >= s0.LastFullBytes {
		t.Fatalf("delta transfer (%d bytes) not smaller than full snapshot (%d bytes)",
			deltaBytes, s0.LastFullBytes)
	}
	if got := readBox(t, c.Replica(2), "counter"); got != 80 {
		t.Fatalf("counter = %v, want 80", got)
	}
}

// TestDurableFallbackWhenGapOutrunsRetention: a joiner whose missing suffix
// exceeds the coordinator's retained delta window must get a full transfer,
// and still converge.
func TestDurableFallbackWhenGapOutrunsRetention(t *testing.T) {
	c, _ := newDurableCluster(t, 3, core.DurabilityConfig{Retain: 8})
	commitN(t, c, "counter", 20)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Crash(2)
	commitN(t, c, "counter", 40) // gap of 40 > retention of 8

	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitRejoined(t, c, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	s0 := c.Replica(0).Stats().WAL
	if s0.FullsServed == 0 {
		t.Errorf("coordinator never fell back to a full transfer (stats: %+v)", s0)
	}
	s2 := c.Replica(2).Stats().WAL
	if s2.FullInstalled == 0 {
		t.Errorf("joiner did not install the full snapshot (stats: %+v)", s2)
	}
	if s2.DeltaInstalled != 0 {
		t.Errorf("joiner installed a delta across a gap wider than retention (stats: %+v)", s2)
	}
	if got := readBox(t, c.Replica(2), "counter"); got != 60 {
		t.Fatalf("counter = %v, want 60", got)
	}
	if diff := c.CheckHistories(); diff != "" {
		t.Fatalf("history divergence after fallback: %s", diff)
	}
}

// TestDurableRestartWithoutSnapshotReplaysLog: recovery must work from the
// WAL alone when no snapshot was ever taken (no seed: boxes are created by
// transactions, so every version is in the log).
func TestDurableRestartWithoutSnapshotReplaysLog(t *testing.T) {
	root := t.TempDir()
	c, err := New(Config{
		N:          3,
		Core:       core.Config{Protocol: core.ProtocolALC, GCEvery: -1},
		Net:        memnet.Config{Latency: 500 * time.Microsecond},
		GCS:        testGCS(),
		Durability: core.DurabilityConfig{Dir: root, Fsync: "off"},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)

	// Create the box transactionally so it travels in a write-set.
	if err := c.Replica(0).Atomic(func(tx *stm.Txn) error {
		return tx.Write("made", 1)
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	commitN(t, c, "made", 25)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	c.Crash(2)
	commitN(t, c, "made", 5)
	if err := c.Restart(2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	waitRejoined(t, c, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	s2 := c.Replica(2).Stats().WAL
	if s2.RecoveredFromSnapshot {
		t.Errorf("unexpected snapshot recovery (none was taken)")
	}
	if s2.ReplayedEntries == 0 {
		t.Errorf("no WAL entries replayed (stats: %+v)", s2)
	}
	if s2.DeltaInstalled == 0 || s2.FullInstalled != 0 {
		t.Errorf("log-only recovery should still rejoin via delta (stats: %+v)", s2)
	}
	if got := readBox(t, c.Replica(2), "made"); got != 31 {
		t.Fatalf("made = %v, want 31", got)
	}
}

// TestDurableGobEraDirectoryRejoinsByFullTransfer: a durability directory
// written by a build that gob-encoded its WAL records and snapshot (every
// build before the wire-codec WAL) is not read: recovery counts the fault,
// discards it whole — never a partially applied log — and the replica
// rejoins stateless, by full transfer.
func TestDurableGobEraDirectoryRejoinsByFullTransfer(t *testing.T) {
	rejoinsByFullTransfer(t, func(dir string) {
		// The old build's file shapes: one gob stream per CRC frame.
		type gobSnapshot struct {
			Boxes    map[string]int
			Frontier map[int32]uint64
		}
		type gobRecord struct {
			Shard int
			Boxes map[string]int
		}
		gobFrame := func(v any) []byte {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
			return wal.EncodeRecord(buf.Bytes())
		}
		snap := gobFrame(&gobSnapshot{Boxes: map[string]int{"counter": 7}, Frontier: map[int32]uint64{0: 99}})
		log := append(gobFrame(&gobRecord{Boxes: map[string]int{"counter": 8}}), gobFrame(&gobRecord{Boxes: map[string]int{"counter": 9}})...)
		writeDir(t, dir, snap, log)
	})
}

// TestDurableShardGroupFormatDirectoryRejoinsByFullTransfer: the same for a
// directory in WAL format 0xA1, written by the build that ran shard groups
// (a shard number on every record, one frontier per group in the snapshot).
func TestDurableShardGroupFormatDirectoryRejoinsByFullTransfer(t *testing.T) {
	rejoinsByFullTransfer(t, func(dir string) {
		var err error
		snap := []byte{0xA1}
		snap = wire.AppendVarint(snap, 3) // store clock
		snap = wire.AppendUvarint(snap, 1)
		snap = wire.AppendString(snap, "counter")
		snap = wire.AppendVarint(snap, 0) // writer
		snap = wire.AppendUvarint(snap, 99)
		if snap, err = wire.AppendAny(snap, 7); err != nil {
			t.Fatal(err)
		}
		snap = wire.AppendUvarint(snap, 1) // one frontier per shard group
		snap = append(snap, 1)             // present
		snap = wire.AppendUvarint(snap, 1)
		snap = wire.AppendVarint(snap, 0)
		snap = wire.AppendUvarint(snap, 99)
		record := func(seq uint64, v int) []byte {
			b := []byte{0xA1}
			b = wire.AppendUvarint(b, 0) // shard group
			b = wire.AppendUvarint(b, 1) // entries
			b = wire.AppendVarint(b, 0)  // txn
			b = wire.AppendUvarint(b, seq)
			b = wire.AppendVarint(b, 0) // lease
			b = wire.AppendUvarint(b, 1)
			b = wire.AppendVarint(b, 0)  // TO ordinal
			b = wire.AppendUvarint(b, 1) // writes
			b = wire.AppendString(b, "counter")
			if b, err = wire.AppendAny(b, v); err != nil {
				t.Fatal(err)
			}
			return wal.EncodeRecord(b)
		}
		writeDir(t, dir, wal.EncodeRecord(snap), append(record(100, 8), record(101, 9)...))
	})
}

// writeDir replaces a crashed replica's durability directory content.
func writeDir(t *testing.T, dir string, snap, log []byte) {
	t.Helper()
	if err := os.WriteFile(wal.SnapshotPath(dir), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal.LogPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rejoinsByFullTransfer crashes replica 2 of a durable cluster, overwrites
// its directory with write, and checks that the restarted replica counts one
// fault, recovers nothing and rejoins by full transfer to the cluster's
// state.
func rejoinsByFullTransfer(t *testing.T, write func(dir string)) {
	t.Helper()
	c, root := newDurableCluster(t, 3, core.DurabilityConfig{})
	commitN(t, c, "counter", 20)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	write(filepath.Join(root, "r2"))

	commitN(t, c, "counter", 10)
	if err := c.Restart(2); err != nil {
		t.Fatalf("restart over a foreign directory: %v", err)
	}
	waitRejoined(t, c, 2)
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s2 := c.Replica(2).Stats().WAL
	if s2.Errors != 1 || s2.RecoveredFromSnapshot || s2.ReplayedEntries != 0 {
		t.Errorf("foreign directory was not discarded and counted once (stats: %+v)", s2)
	}
	if s2.FullInstalled == 0 || s2.DeltaInstalled != 0 {
		t.Errorf("rejoin after the discard was not a full transfer (stats: %+v)", s2)
	}
	if got := readBox(t, c.Replica(2), "counter"); got != 30 {
		t.Fatalf("counter = %v, want 30", got)
	}
	if diff := c.CheckHistories(); diff != "" {
		t.Fatalf("history divergence after the full-transfer rejoin: %s", diff)
	}
}

// TestDurableCloseUnderApplyLoad closes a durable replica while remote
// write-sets are still being delivered and applied. Close must stop the
// dispatcher, which applies them, before it closes the WAL: an apply that
// outlives the log handle either dereferences it after it is gone or counts
// a spurious durability fault appending to the closed log.
func TestDurableCloseUnderApplyLoad(t *testing.T) {
	const committersPerReplica = 8
	seed := make(map[string]stm.Value)
	for i := 0; i < 2*committersPerReplica; i++ {
		seed[fmt.Sprintf("c%d", i)] = 0
	}
	c, err := New(Config{
		N:          3,
		Core:       core.Config{Protocol: core.ProtocolALC},
		Net:        memnet.Config{Latency: 200 * time.Microsecond},
		GCS:        testGCS(),
		Seed:       seed,
		Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off"},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer c.Close()

	// Replicas 0 and 1 commit on disjoint boxes; replica 2 only applies.
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for i := 0; i < 2*committersPerReplica; i++ {
		r, box := c.Replica(i%2), fmt.Sprintf("c%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The crash below forces a view change; a commit caught by
				// it may fail, which is not what this test is about.
				_ = r.Atomic(increment(box))
			}
		}()
	}

	victim := c.Replica(2)
	for victim.Stats().WAL.Records < 50 {
		time.Sleep(time.Millisecond)
	}
	c.Crash(2) // closes victim with apply tasks queued and running
	close(stop)
	wg.Wait()

	if s := victim.Stats().WAL; s.Errors != 0 {
		t.Fatalf("closed replica counted %d durability faults (an apply outlived the WAL handle): %+v", s.Errors, s)
	}
}

// TestDurableWholeClusterRestart: every replica stops and starts again as an
// initial member from its own directory, as a cluster restart does. The new
// group numbers its lease requests from 1 again, and its lease-miss commits
// (§4.5(c) payloads, keyed in the TO lane on those numbers) are acknowledged
// after they are applied: none may be filtered as already absorbed by a
// recovered frontier of the previous run.
func TestDurableWholeClusterRestart(t *testing.T) {
	cfg := Config{
		N:          3,
		Core:       core.Config{Protocol: core.ProtocolALC, GCEvery: -1},
		Net:        memnet.Config{Latency: 500 * time.Microsecond},
		GCS:        testGCS(),
		Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off"},
	}
	run := func(first bool) {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("cluster.New: %v", err)
		}
		defer c.Close()
		if first {
			if err := c.Replica(0).Atomic(func(tx *stm.Txn) error { return tx.Write("counter", 0) }); err != nil {
				t.Fatalf("create: %v", err)
			}
		}
		commitN(t, c, "counter", 30) // rotates the lease: every commit is a lease miss
		if err := c.WaitConverged(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		want := 30
		if !first {
			want = 60
		}
		for _, r := range c.Replicas() {
			if got := readBox(t, r, "counter"); got != want {
				t.Fatalf("replica %d: counter = %v, want %d", r.ID(), got, want)
			}
			if s := r.Stats(); s.Piggybacked == 0 || s.WAL.FilteredNeverSeen != 0 {
				t.Fatalf("replica %d: %d lease-miss commits, %d entries lost to the filter",
					r.ID(), s.Piggybacked, s.WAL.FilteredNeverSeen)
			}
		}
	}
	run(true)
	run(false)
}

// gcsLog collects the group layer's debug lines.
type gcsLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *gcsLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
}

func (l *gcsLog) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// TestDurableCertRestartDeltaThenFull runs CERT across a restart and a full
// transfer. Its commit clock is the durability tier's TO frontier, so a
// rejoined replica must certify in step with the group after a delta install
// (the suffix re-advances the clock through its original ordinals) and after
// a full one (the clock jumps to the transferred frontier).
func TestDurableCertRestartDeltaThenFull(t *testing.T) {
	c, err := New(Config{
		N:          3,
		Core:       core.Config{Protocol: core.ProtocolCert, GCEvery: -1, MaxRetries: 50},
		Net:        memnet.Config{Latency: 500 * time.Microsecond},
		GCS:        testGCS(),
		Seed:       map[string]stm.Value{"counter": 0},
		Durability: core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off", Retain: 8},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	// rejoin crashes replica 2, commits through the others, restarts it and
	// then commits on all three: the rejoined replica must certify in step,
	// its commits and the others' interleaving on one clock.
	rejoin := func(commits int) core.WALStats {
		t.Helper()
		c.Crash(2)
		commitN(t, c, "counter", commits)
		if err := c.Restart(2); err != nil {
			t.Fatalf("restart: %v", err)
		}
		waitRejoined(t, c, 2)
		commitN(t, c, "counter", 3)
		if err := c.WaitConverged(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return c.Replica(2).Stats().WAL
	}

	if s := rejoin(4); s.DeltaInstalled == 0 || s.FullInstalled != 0 {
		t.Fatalf("a 4-commit gap inside the 8-entry window: want a delta, got %+v", s)
	}
	if s := rejoin(40); s.FullInstalled == 0 {
		t.Fatalf("a 40-commit gap past the 8-entry window: want a full transfer, got %+v", s)
	}
	var evicted int64
	for _, r := range c.Replicas() {
		evicted += r.Stats().WAL.DeltaDeclined.Evicted
	}
	if evicted == 0 {
		t.Fatal("no delta declined as evicted for the 40-commit gap")
	}
	for _, r := range c.Replicas() {
		if got := readBox(t, r, "counter"); got != 50 {
			t.Fatalf("replica %d: counter = %v, want 50", r.ID(), got)
		}
	}
	if diff := c.CheckHistories(); diff != "" {
		t.Fatalf("history divergence: %s", diff)
	}
}

// TestFullTransferLogsReason: the coordinator says why a joiner got a full
// transfer. A memory-only replica restarts with no state and advertises no
// frontier; a durable one whose gap outruns the retained window advertises
// one that the delta declines, and the decline is counted by reason.
func TestFullTransferLogsReason(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
		want    string
	}{
		{"no frontier", false, "full state transfer to 2 (no frontier advertised)"},
		{"delta declined", true, "full state transfer to 2 (delta declined)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &gcsLog{}
			gcsCfg := testGCS()
			gcsCfg.Logf = log.logf
			var dur core.DurabilityConfig
			if tc.durable {
				dur = core.DurabilityConfig{Dir: t.TempDir(), Fsync: "off", Retain: 8}
			}
			c, err := New(Config{
				N:          3,
				Core:       core.Config{Protocol: core.ProtocolALC},
				Net:        memnet.Config{Latency: 500 * time.Microsecond},
				GCS:        gcsCfg,
				Seed:       map[string]stm.Value{"counter": 0},
				Durability: dur,
			})
			if err != nil {
				t.Fatalf("cluster.New: %v", err)
			}
			t.Cleanup(c.Close)

			c.Crash(2)
			commitN(t, c, "counter", 40) // wider than an 8-entry window
			if err := c.Restart(2); err != nil {
				t.Fatalf("restart: %v", err)
			}
			waitRejoined(t, c, 2)
			if !log.has(tc.want) {
				t.Fatalf("no %q in the gcs log", tc.want)
			}
			var declined core.DeltaDeclines
			for _, r := range c.Replicas() {
				d := r.Stats().WAL.DeltaDeclined
				declined.Ahead += d.Ahead
				declined.Epoch += d.Epoch
				declined.Evicted += d.Evicted
			}
			if declined.Ahead != 0 || declined.Epoch != 0 || (declined.Evicted > 0) != tc.durable {
				t.Fatalf("DeltaDeclined across replicas = %+v, want evicted only, and only for the durable joiner", declined)
			}
		})
	}
}
