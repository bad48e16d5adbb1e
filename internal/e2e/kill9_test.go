// Package e2e holds whole-process end-to-end tests: scenarios that need a
// real OS process boundary (kill -9, fsync'd files surviving an abrupt
// death) rather than the in-process crash the cluster harness simulates.
package e2e

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/tcpnet"
	"github.com/alcstm/alc/internal/transport"
)

// TestMain reroutes re-executed copies of the test binary into the replica
// helper: the parent test spawns itself with ALC_E2E_ROLE=replica to get a
// genuinely separate process it can kill -9.
func TestMain(m *testing.M) {
	if os.Getenv("ALC_E2E_ROLE") == "replica" {
		runReplicaHelper()
		return
	}
	os.Exit(m.Run())
}

// incOrCreate reads box (zero if absent) and writes value+1.
func incOrCreate(box string) func(*stm.Txn) error {
	return func(tx *stm.Txn) error {
		cur := 0
		v, err := tx.Read(box)
		switch {
		case err == nil:
			cur = v.(int)
		case !errors.Is(err, stm.ErrNoSuchBox):
			return err
		}
		return tx.Write(box, cur+1)
	}
}

func registerWire() {
	gcs.RegisterWire()
	core.RegisterWire()
}

// runReplicaHelper is the child process: one durable replica over TCP. It
// prints READY after its first commit and then increments its own box until
// killed. Configuration arrives via environment variables.
func runReplicaHelper() {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "e2e helper: "+format+"\n", args...)
		os.Exit(1)
	}
	id, err := strconv.Atoi(os.Getenv("ALC_E2E_ID"))
	if err != nil {
		fail("bad ALC_E2E_ID: %v", err)
	}
	join := os.Getenv("ALC_E2E_JOIN") == "1"
	dir := os.Getenv("ALC_E2E_DIR")
	addrs := make(map[transport.ID]string)
	var members []transport.ID
	for _, part := range strings.Split(os.Getenv("ALC_E2E_PEERS"), ",") {
		kv := strings.SplitN(part, "=", 2)
		pid, err := strconv.Atoi(kv[0])
		if err != nil {
			fail("bad peer %q", part)
		}
		addrs[transport.ID(pid)] = kv[1]
		members = append(members, transport.ID(pid))
	}

	registerWire()
	tr, err := tcpnet.New(tcpnet.Config{Self: transport.ID(id), Addrs: addrs})
	if err != nil {
		fail("transport: %v", err)
	}
	replica, err := core.NewReplica(tr, core.Config{
		Protocol: core.ProtocolALC,
		Lease:    lease.Config{OptimisticFree: true},
		Durability: core.DurabilityConfig{
			Dir:           dir,
			Fsync:         "interval",
			FsyncInterval: 2 * time.Millisecond,
		},
	}, gcs.Config{Members: members, Joining: join})
	if err != nil {
		fail("replica: %v", err)
	}
	if err := replica.WaitForView(len(members)/2+1, 30*time.Second); err != nil {
		fail("view: %v", err)
	}
	// First commit proves the replica is live in the primary (and, on a
	// rejoin, that recovery + state transfer completed).
	for {
		if err := replica.Atomic(incOrCreate("child")); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println("READY")
	for {
		_ = replica.Atomic(incOrCreate("child"))
		time.Sleep(2 * time.Millisecond)
	}
}

// spawnChild re-executes the test binary as the replica-2 helper and waits
// for its READY line.
func spawnChild(t *testing.T, peers, dir string, join bool) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	joinEnv := "0"
	if join {
		joinEnv = "1"
	}
	cmd.Env = append(os.Environ(),
		"ALC_E2E_ROLE=replica",
		"ALC_E2E_ID=2",
		"ALC_E2E_PEERS="+peers,
		"ALC_E2E_DIR="+dir,
		"ALC_E2E_JOIN="+joinEnv,
	)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "READY" {
				ready <- nil
				return
			}
		}
		ready <- fmt.Errorf("child exited before READY: %v", sc.Err())
	}()
	select {
	case err := <-ready:
		if err != nil {
			_ = cmd.Process.Kill()
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("child never became READY")
	}
	return cmd
}

// TestKill9RestartCatchesUpViaDelta runs a three-replica group over real TCP
// with replicas 0 and 1 in this process and replica 2 in a child process
// with a durable data directory. The child is SIGKILLed mid-benchmark,
// restarted against the same directory, and must catch up through a delta
// state transfer — the coordinator must not cut the full state for the
// restart, whose advertised frontier is inside the retained window.
//
// Only the transfers that admitted the child after the kill count, read from
// the coordinators' transfer records. A full transfer at the child's first
// boot is legitimate: on a loaded host the two in-process replicas can
// install a two-member view before the child process is up, and it then
// joins with no state to advertise ("full state transfer to 2 (no frontier
// advertised)"). So is a later join after the restart's, when the child is
// ejected and readmitted from a frontier inside the window: it takes a
// delta too.
func TestKill9RestartCatchesUpViaDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kill -9s a real process")
	}
	registerWire()

	// Bind throwaway listeners to reserve three ports, then release them.
	addrs := make(map[transport.ID]string, 3)
	for i := 0; i < 3; i++ {
		tr, err := tcpnet.New(tcpnet.Config{
			Self:  transport.ID(i),
			Addrs: map[transport.ID]string{transport.ID(i): "127.0.0.1:0"},
		})
		if err != nil {
			t.Fatalf("bootstrap transport %d: %v", i, err)
		}
		addrs[transport.ID(i)] = tr.Addr()
		_ = tr.Close()
	}
	members := []transport.ID{0, 1, 2}
	var peerParts []string
	for _, id := range members {
		peerParts = append(peerParts, fmt.Sprintf("%d=%s", id, addrs[id]))
	}
	peers := strings.Join(peerParts, ",")

	// Replicas 0 and 1 live in this process, memory-only (they still retain
	// the delta window and serve deltas; only the child persists). The window
	// is sized well past what replica 0 can commit while the child is away:
	// at the default 8192 entries a ~10k commits/s loopback pipeline fills it
	// in under a second, and whether the ~1 s kill-to-rejoin gap fits then
	// hangs on which join-request period the readmission lands in — this
	// test is about the delta path, the fallback when a gap outruns retention
	// has its own (TestDurableFallbackWhenGapOutrunsRetention).
	local := make([]*core.Replica, 2)
	for i := 0; i < 2; i++ {
		tr, err := tcpnet.New(tcpnet.Config{Self: transport.ID(i), Addrs: addrs})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		r, err := core.NewReplica(tr, core.Config{
			Protocol:   core.ProtocolALC,
			Lease:      lease.Config{OptimisticFree: true},
			Durability: core.DurabilityConfig{Retain: 1 << 16},
		}, gcs.Config{Members: members})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		defer r.Close()
		defer tr.Close()
		local[i] = r
	}

	dir := t.TempDir()
	child := spawnChild(t, peers, dir, false)
	defer func() {
		if child.Process != nil {
			_ = child.Process.Kill()
			_, _ = child.Process.Wait()
		}
	}()
	if err := local[0].WaitForView(3, 30*time.Second); err != nil {
		t.Fatalf("initial view: %v", err)
	}
	// The child is READY only inside a view, so a boot-time transfer to it
	// has already been served.
	if boot := transfersTo(local, 2, 0); len(boot) > 0 {
		t.Logf("the child joined a view formed without it: %+v at boot", boot)
	}

	// Benchmark load on replica 0, running across the kill and the restart.
	stop := make(chan struct{})
	var commits atomic.Int64
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := local[0].Atomic(incOrCreate("bench")); err == nil {
				commits.Add(1)
			} else {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// Let traffic flow, then kill -9 the child mid-benchmark.
	time.Sleep(300 * time.Millisecond)
	if err := child.Process.Kill(); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	_, _ = child.Process.Wait()
	child.Process = nil
	killedAt := commits.Load()
	killView := local[0].GCS().CurrentView().ID

	// Keep committing while the child is down: this is the gap the delta
	// must cover.
	time.Sleep(300 * time.Millisecond)
	if commits.Load() <= killedAt {
		t.Fatalf("load stalled after the kill (%d commits)", killedAt)
	}

	// Restart against the same data directory. READY implies the child
	// recovered locally, rejoined, and committed again.
	child = spawnChild(t, peers, dir, true)
	close(stop)
	<-loadDone

	deadline := time.Now().Add(30 * time.Second)
	for {
		if joins := transfersTo(local, 2, killView); len(joins) > 0 {
			for _, x := range joins {
				if x.Kind != core.TransferDelta {
					t.Fatalf("the restarted durable joiner was admitted by a %s transfer (records since the kill: %+v)", x.Kind, joins)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no coordinator admitted the restarted child (stats: %+v)", local[0].Stats().WAL)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The restarted child's post-rejoin commits must be visible here.
	deadline = time.Now().Add(30 * time.Second)
	for {
		var child int
		err := local[0].AtomicRO(func(tx *stm.Txn) error {
			v, err := tx.Read("child")
			if err != nil {
				return err
			}
			child = v.(int)
			return nil
		})
		if err == nil && child > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child's commits never visible after restart: child=%d err=%v", child, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// transfersTo returns the replicas' records of the state transfers they
// served to joiner after view after, in view order.
func transfersTo(rs []*core.Replica, joiner transport.ID, after uint64) []core.Transfer {
	var out []core.Transfer
	for _, r := range rs {
		for _, x := range r.Stats().WAL.Transfers {
			if x.Served && x.Joiner == joiner && x.View > after {
				out = append(out, x)
			}
		}
	}
	slices.SortFunc(out, func(a, b core.Transfer) int { return cmp.Compare(a.View, b.View) })
	return out
}
