package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/tcpnet"
	"github.com/alcstm/alc/internal/transport"
)

const numReplicas = 3

// scratchRoot is where the benchmark keeps everything it writes besides the
// span file: WAL directories and the layer drivers' files. It is relative to
// the working directory, which the launcher makes the checkout's root, and
// it is the build directory the root .gitignore already names.
const scratchRoot = ".bench_build/tmp"

// discard is the sink for the program's connection diagnostics: standard
// output carries only the result, and a peer closing at teardown is not news.
func discard(string, ...any) {}

func registerWire() {
	gcs.RegisterWire()
	core.RegisterWire()
	core.RegisterValue(0)
}

// cluster is the shipping stack in one process: three replicas with the
// alc-node settings over tcpnet on loopback (binary wire codec, no injected
// delay, default gcs timers) and a client port on each.
type cluster struct {
	w          *workload
	transports []*tcpnet.Transport
	replicas   []*core.Replica
	servers    []*clientsrv.Server
	walDir     string
}

// newCluster builds the cluster and seeds it. With a tracer, the replicas'
// transports and the client ports' backends are decorated.
func newCluster(w *workload, t *tracer) (*cluster, error) {
	c := &cluster{w: w}
	if err := c.build(t); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) build(t *tracer) (err error) {
	w := c.w
	if c.transports, err = loopbackTransports(numReplicas); err != nil {
		return err
	}
	ids := make([]transport.ID, numReplicas)
	for i := range ids {
		ids[i] = transport.ID(i)
	}
	if w.durable {
		if c.walDir, err = makeTempDir(walRoot(), "alc-benchmark-wal-"); err != nil {
			return err
		}
	}

	// Every replica is started before any is seeded: seeding takes long
	// enough (a durable one writes a snapshot) that a replica started first
	// would otherwise suspect the ones not yet listening.
	for i, tcp := range c.transports {
		var tr transport.Transport = tcp
		if t != nil {
			tr = &tracedTransport{Transport: tcp, t: t, replica: i}
		}
		cfg := core.Config{
			Protocol: core.ProtocolALC,
			Shards:   w.shards,
			Lease:    lease.Config{OptimisticFree: true, DeadlockDetection: true},
		}
		if w.durable {
			cfg.Durability = core.DurabilityConfig{
				Dir:   filepath.Join(c.walDir, fmt.Sprintf("r%d", i)),
				Fsync: "always",
			}
		}
		// AutoRejoin as alc-node sets it: a replica the others suspected
		// after a stall of the whole host comes back by state transfer.
		r, err := core.NewReplica(tr, cfg, gcs.Config{Members: ids, AutoRejoin: true})
		if err != nil {
			return err
		}
		c.replicas = append(c.replicas, r)
	}
	seed := w.seedMap()
	for _, r := range c.replicas {
		if err := r.Seed(seed); err != nil {
			return err
		}
	}
	for _, r := range c.replicas {
		if err := r.WaitForView(numReplicas, 20*time.Second); err != nil {
			return err
		}
	}

	if !w.clientPort {
		return nil
	}
	for i, r := range c.replicas {
		var backend clientsrv.Backend = clientsrv.ReplicaBackend{R: r}
		if t != nil {
			backend = &tracedBackend{inner: backend, t: t, replica: i}
		}
		srv, err := clientsrv.Serve("127.0.0.1:0", clientsrv.Config{Backend: backend, Logf: discard})
		if err != nil {
			return err
		}
		c.servers = append(c.servers, srv)
	}
	return nil
}

// dial opens caller i's connection pool to its replica: one connection, so a
// caller has one request outstanding and requests reach the backend in the
// order the caller sent them.
func (c *cluster) dial(caller int) *clientsrv.Client {
	return clientsrv.Dial(clientsrv.ClientConfig{Addr: c.servers[caller].Addr(), Conns: 1})
}

// loopbackTransports starts n tcpnet transports, IDs 0 to n-1, on free
// loopback ports. The ports are found by binding 127.0.0.1:0 and closing
// again, so another process can take one in between; that bind race is
// retried (internal/bench/netload.go, which this follows, runs alone).
func loopbackTransports(n int) ([]*tcpnet.Transport, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var trs []*tcpnet.Transport
		if trs, err = bindTransports(n); !errors.Is(err, syscall.EADDRINUSE) {
			return trs, err
		}
	}
	return nil, err
}

func bindTransports(n int) ([]*tcpnet.Transport, error) {
	addrs := make(map[transport.ID]string, n)
	for i := 0; i < n; i++ {
		id := transport.ID(i)
		probe, err := tcpnet.New(tcpnet.Config{Self: id, Addrs: map[transport.ID]string{id: "127.0.0.1:0"}, Logf: discard})
		if err != nil {
			return nil, err
		}
		addrs[id] = probe.Addr()
		if err := probe.Close(); err != nil {
			return nil, err
		}
	}
	trs := make([]*tcpnet.Transport, 0, n)
	for i := 0; i < n; i++ {
		tr, err := tcpnet.New(tcpnet.Config{Self: transport.ID(i), Addrs: addrs, Logf: discard})
		if err != nil {
			for _, t := range trs {
				_ = t.Close()
			}
			return nil, err
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

// close stops everything the cluster started and removes its WAL.
func (c *cluster) close() {
	for _, s := range c.servers {
		_ = s.Close()
	}
	for _, r := range c.replicas {
		_ = r.Close()
	}
	for _, tr := range c.transports {
		_ = tr.Close()
	}
	if c.walDir != "" {
		removeTempDir(c.walDir)
	}
}

// fsType names the filesystem holding dir, for the report: fsync cost is the
// device's, so the numbers of bank-durable only compare on the same kind.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// walRoot is where WAL directories go: tmpfs when the host has a writable
// one, else the checkout's own filesystem. bank-durable measures the
// program's durable commit path, not the device: on this host's disk,
// consecutive runs with fsync=always ranged 1415-1812 ops/s, on tmpfs
// 5682-5826. The device's share stays visible as wal.fsync_device_us.
var walRoot = sync.OnceValue(func() string {
	const shm = "/dev/shm"
	if dir, err := os.MkdirTemp(shm, "alc-benchmark-probe-"); err == nil {
		_ = os.Remove(dir)
		return shm
	}
	return scratchRoot
})
