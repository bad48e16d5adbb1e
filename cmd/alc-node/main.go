// Command alc-node runs one replica of the replicated STM over real TCP, as
// an interactive replicated key-value node. Start one process per replica:
//
//	alc-node -id 0 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002
//	alc-node -id 1 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002
//	alc-node -id 2 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002
//
// A replica that crashed can be restarted with -join to rejoin through the
// group's state transfer.
//
// Replica links speak the binary wire codec; a peer from the retired
// gob-framing release is refused at handshake. -shards splits the conflict
// classes across that many independent lease/broadcast groups (see README
// "Horizontal sharding"; every node must agree). -client opens the wire client
// protocol front door with admission control (-max-inflight, -max-pending);
// drive it with the clientsrv package (clientsrv.Dial), as benchmark/ does.
//
// Commands on stdin:
//
//	set <key> <int>     replicated write transaction
//	get <key>           local read-only transaction
//	inc <key> [delta]   replicated read-modify-write transaction
//	stats               protocol counters
//	dump                view, store and lease-table introspection
//	quit
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/obs"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/tcpnet"
	"github.com/alcstm/alc/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "alc-node:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.Int("id", -1, "this replica's ID")
		peers     = flag.String("peers", "", "comma-separated id=host:port list for every replica")
		protocol  = flag.String("protocol", "alc", "alc or cert")
		shards    = flag.Int("shards", 1, "independent lease/broadcast shard groups (alc only; must match on every node)")
		join      = flag.Bool("join", false, "rejoin a running group via state transfer")
		httpAddr  = flag.String("http", "", "serve /metrics, /debug/alc and /debug/pprof on this address (e.g. :8080)")
		dataDir   = flag.String("data-dir", "", "directory for the write-ahead log and store snapshots (empty = no durability)")
		fsync     = flag.String("fsync", "interval", "WAL fsync policy: always, interval or off")
		fsyncInt  = flag.Duration("fsync-interval", 5*time.Millisecond, "fsync cadence under -fsync=interval")
		snapEvery = flag.Int("snapshot-every", 0, "take a store snapshot and truncate the WAL every N applied write-sets (0 = default 4096, negative = never)")
		client    = flag.String("client", "", "serve the wire client protocol on this address (e.g. :7100; empty = no client port)")
		inflight  = flag.Int("max-inflight", 0, "admission: concurrently executing client requests per connection (0 = default 64)")
		pending   = flag.Int("max-pending", 0, "admission: server-wide executing client requests before shedding with the retryable overloaded status (0 = default 1024)")
	)
	flag.Parse()
	if *id < 0 || *peers == "" {
		return fmt.Errorf("-id and -peers are required")
	}

	addrs, members, err := parsePeers(*peers)
	if err != nil {
		return err
	}

	// Register every type crossing the wire.
	gcs.RegisterWire()
	core.RegisterWire()
	core.RegisterValue(0) // int box values

	tr, err := tcpnet.New(tcpnet.Config{Self: transport.ID(*id), Addrs: addrs})
	if err != nil {
		return err
	}
	defer tr.Close()

	proto := core.ProtocolALC
	if *protocol == "cert" {
		proto = core.ProtocolCert
	}
	replica, err := core.NewReplica(tr, core.Config{
		Protocol: proto,
		Shards:   *shards,
		Lease:    lease.Config{OptimisticFree: true, DeadlockDetection: true},
		Durability: core.DurabilityConfig{
			Dir:           *dataDir,
			Fsync:         *fsync,
			FsyncInterval: *fsyncInt,
			SnapshotEvery: *snapEvery,
		},
	}, gcs.Config{
		Members:    members,
		Joining:    *join,
		AutoRejoin: true,
	})
	if err != nil {
		return err
	}
	defer replica.Close()

	if *dataDir != "" {
		ws := replica.Stats().WAL
		fmt.Printf("durability on: %s (fsync=%s); recovered snapshot=%t, %d WAL records (%d entries) in %v\n",
			*dataDir, *fsync, ws.RecoveredFromSnapshot, ws.ReplayedRecords, ws.ReplayedEntries, ws.ReplayDuration)
	}

	var csrv *clientsrv.Server
	if *client != "" {
		csrv, err = clientsrv.Serve(*client, clientsrv.Config{
			Backend:     clientsrv.ReplicaBackend{R: replica},
			MaxInflight: *inflight,
			MaxPending:  *pending,
		})
		if err != nil {
			return err
		}
		defer csrv.Close()
		fmt.Printf("client protocol on %s\n", csrv.Addr())
	}

	if *httpAddr != "" {
		obs.Default.Register(fmt.Sprintf("node-%d", *id),
			func() *core.Replica { return replica })
		if csrv != nil {
			obs.Default.RegisterAdmission(fmt.Sprintf("node-%d", *id),
				func() *clientsrv.Server { return csrv })
		}
		srv, err := obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s/{metrics,debug/alc,debug/pprof}\n", srv.Addr())
	}

	fmt.Printf("replica %d up (%v, %d peers); waiting for the group...\n", *id, proto, len(members)-1)
	if err := replica.WaitForView(len(members)/2+1, 30*time.Second); err != nil {
		return err
	}
	fmt.Printf("view installed: %v\n", replica.GCS().CurrentView())

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "stats":
			s := replica.Stats()
			fmt.Printf("commits=%d aborts=%d readonly=%d leaseReqs=%d leaseReuse=%d\n",
				s.Commits, s.Aborts, s.ReadOnly, s.Lease.Requested, s.Lease.Reused)
			if s.WAL.Enabled {
				fmt.Printf("wal: records=%d bytes=%d snapshots=%d retained=%d deltasServed=%d fullsServed=%d\n",
					s.WAL.Records, s.WAL.AppendedBytes, s.WAL.Snapshots,
					s.WAL.RetainedEntries, s.WAL.DeltasServed, s.WAL.FullsServed)
			}
		case "dump":
			fmt.Printf("view: %v  primary: %t\n", replica.GCS().CurrentView(), replica.InPrimary())
			fmt.Printf("store: %d boxes, clock %d, %d active txns\n",
				replica.Store().NumBoxes(), replica.Store().CommitTimestamp(), replica.Store().ActiveTxns())
			fmt.Print(replica.LeaseManager().DumpState())
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			err := replica.AtomicRO(func(tx *stm.Txn) error {
				v, err := tx.Read(fields[1])
				if err != nil {
					return err
				}
				fmt.Printf("%s = %v\n", fields[1], v)
				return nil
			})
			if err != nil {
				fmt.Println("error:", err)
			}
		case "set":
			if len(fields) != 3 {
				fmt.Println("usage: set <key> <int>")
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			err = replica.Atomic(func(tx *stm.Txn) error {
				return tx.Write(fields[1], n)
			})
			report(err)
		case "inc":
			if len(fields) < 2 {
				fmt.Println("usage: inc <key> [delta]")
				continue
			}
			delta := 1
			if len(fields) == 3 {
				if d, err := strconv.Atoi(fields[2]); err == nil {
					delta = d
				}
			}
			err = replica.Atomic(func(tx *stm.Txn) error {
				return applyInc(tx, fields[1], delta)
			})
			report(err)
		default:
			fmt.Println("commands: set get inc stats dump quit")
		}
	}
}

// txRW is the slice of *stm.Txn that applyInc needs (seam for testing the
// error-handling contract without driving a live store into each case).
type txRW interface {
	Read(box string) (stm.Value, error)
	Write(box string, v stm.Value) error
}

// applyInc is the read-modify-write body of the inc command. Only a missing
// box means "start from zero": any other read error (snapshot conflict,
// finished transaction) must propagate so the STM aborts and transparently
// re-executes — swallowing it would commit 0+delta over a value the
// transaction was not entitled to ignore.
func applyInc(tx txRW, key string, delta int) error {
	cur := 0
	v, err := tx.Read(key)
	switch {
	case errors.Is(err, stm.ErrNoSuchBox):
		// box absent: create it at delta
	case err != nil:
		return err
	default:
		n, ok := v.(int)
		if !ok {
			return fmt.Errorf("inc %s: box holds %T, not int", key, v)
		}
		cur = n
	}
	return tx.Write(key, cur+delta)
}

func report(err error) {
	if err != nil {
		fmt.Println("error:", err)
	} else {
		fmt.Println("ok")
	}
}

func parsePeers(s string) (map[transport.ID]string, []transport.ID, error) {
	addrs := make(map[transport.ID]string)
	var members []transport.ID
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", kv[0], err)
		}
		addrs[transport.ID(id)] = kv[1]
		members = append(members, transport.ID(id))
	}
	return addrs, members, nil
}
