// Package cluster assembles multi-replica deployments of the replicated STM
// over the simulated in-process network: construction, seeding, startup
// synchronization, failure injection (crashes, partitions), recovery with
// state transfer, and convergence checks. It is the harness under the public
// API, the integration tests, and the experiment suite.
package cluster

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/core"
	"github.com/alcstm/alc/internal/gcs"
	"github.com/alcstm/alc/internal/lease"
	"github.com/alcstm/alc/internal/memnet"
	"github.com/alcstm/alc/internal/obs"
	"github.com/alcstm/alc/internal/stm"
	"github.com/alcstm/alc/internal/transport"
)

// clusterSeq numbers clusters within the process so that concurrently
// running clusters (tests, benchmarks) get distinct obs registry names.
var clusterSeq atomic.Int64

// Config parametrizes a cluster.
type Config struct {
	// N is the number of replicas.
	N int
	// Core configures the replication protocol on every replica. Its
	// Durability.Dir, when set, is a cluster root: replica i persists under
	// Dir/r<i>, so a Restart recovers locally and rejoins via a delta state
	// transfer instead of the full snapshot.
	Core core.Config
	// Net configures the simulated network.
	Net memnet.Config
	// GCS overrides group-communication timing (Members is set internally).
	GCS gcs.Config
	// Seed pre-populates every replica's store identically.
	Seed map[string]stm.Value
}

// startTimeout bounds waiting for the initial view.
const startTimeout = 10 * time.Second

// Cluster is a running set of replicas over one simulated network. All
// methods are safe for concurrent use (failure injection may race with
// application threads, as in the chaos tests).
type Cluster struct {
	cfg Config
	net *memnet.Network
	ids []transport.ID

	mu       sync.RWMutex
	replicas []*core.Replica

	obsCancels []func()
}

// New builds and starts a cluster, blocking until every replica has
// installed the initial full view. Every replica runs before any is seeded:
// a Seed that outlasts the group's SuspectAfter would otherwise leave the
// replicas started so far alone in the view, and they would eject
// themselves.
func New(cfg Config) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("cluster: invalid size %d", cfg.N)
	}
	c := &Cluster{
		cfg:      cfg,
		net:      memnet.New(cfg.Net),
		replicas: make([]*core.Replica, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		c.ids = append(c.ids, transport.ID(i))
	}

	// Register every replica slot with the process-wide obs registry so an
	// obs server started with -http sees each cluster member as c<n>-r<i>.
	// Getters resolve lazily through Replica(i): crash/restart cycles swap
	// the underlying replica without re-registering.
	cn := clusterSeq.Add(1)
	for i := 0; i < cfg.N; i++ {
		i := i
		c.obsCancels = append(c.obsCancels,
			obs.Default.Register(fmt.Sprintf("c%d-r%d", cn, i),
				func() *core.Replica { return c.Replica(i) }))
	}
	for i := 0; i < cfg.N; i++ {
		r, err := c.startReplica(i, false)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.replicas[i] = r
	}
	if cfg.Seed != nil {
		for i, r := range c.replicas {
			if err := r.Seed(cfg.Seed); err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: seed replica %d: %w", i, err)
			}
		}
	}
	for i, r := range c.replicas {
		if err := r.WaitForView(cfg.N, startTimeout); err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
		}
	}
	return c, nil
}

func (c *Cluster) startReplica(i int, joining bool) (*core.Replica, error) {
	tr, err := c.net.Endpoint(transport.ID(i))
	if err != nil {
		return nil, fmt.Errorf("cluster: endpoint %d: %w", i, err)
	}
	gcsCfg := c.cfg.GCS
	gcsCfg.Members = c.ids
	gcsCfg.Joining = joining
	coreCfg := c.cfg.Core
	if root := coreCfg.Durability.Dir; root != "" {
		coreCfg.Durability.Dir = filepath.Join(root, fmt.Sprintf("r%d", i))
	}
	r, err := core.NewReplica(tr, coreCfg, gcsCfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: replica %d: %w", i, err)
	}
	return r, nil
}

// N returns the number of replica slots.
func (c *Cluster) N() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.replicas)
}

// Replica returns replica i (nil if crashed and not restarted).
func (c *Cluster) Replica(i int) *core.Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.replicas[i]
}

// Replicas returns all live replicas.
func (c *Cluster) Replicas() []*core.Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*core.Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Crash fail-stops replica i: its process halts and its messages are lost.
func (c *Cluster) Crash(i int) {
	c.mu.Lock()
	r := c.replicas[i]
	c.replicas[i] = nil
	c.mu.Unlock()
	if r != nil {
		c.net.Crash(transport.ID(i))
		_ = r.Close()
	}
}

// Restart brings a crashed replica back as a joiner: it rejoins the primary
// component through the group's state transfer (no seeding).
func (c *Cluster) Restart(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replicas[i] != nil {
		return fmt.Errorf("cluster: replica %d is running", i)
	}
	r, err := c.startReplica(i, true)
	if err != nil {
		return err
	}
	c.replicas[i] = r
	return nil
}

// Partition splits the network into isolated groups of replica indices.
func (c *Cluster) Partition(groups ...[]int) {
	idGroups := make([][]transport.ID, len(groups))
	for i, g := range groups {
		for _, idx := range g {
			idGroups[i] = append(idGroups[i], transport.ID(idx))
		}
	}
	c.net.Partition(idGroups...)
}

// Heal removes all partitions.
func (c *Cluster) Heal() { c.net.Heal() }

// SetFaults installs (or, with the zero Faults, clears) seeded message-fault
// injection on the cluster's network (drop/duplicate/delay-spike per link).
func (c *Cluster) SetFaults(f memnet.Faults) { c.net.SetFaults(f) }

// VersionOrders collects every live replica's per-box version-writer order
// (oldest first), keyed by replica then box — the raw material of the offline
// history checker (internal/history). Collect only when the cluster is
// quiescent and converged, or the orders are racing the apply pipeline.
func (c *Cluster) VersionOrders() map[transport.ID]map[string][]stm.TxnID {
	out := make(map[transport.ID]map[string][]stm.TxnID)
	for _, r := range c.Replicas() {
		store := r.Store()
		orders := make(map[string][]stm.TxnID)
		for _, bs := range store.Snapshot().Boxes {
			orders[bs.Box] = store.VersionWriters(bs.Box)
		}
		out[r.ID()] = orders
	}
	return out
}

// FullHistoryReplicas returns the live replicas whose stores were never
// state-transfer-restored (stm.Store.Restores() == 0): their version
// histories are complete, which makes them exact witnesses for the history
// checker — provided automatic GC is disabled (core.Config.GCEvery < 0).
func (c *Cluster) FullHistoryReplicas() []transport.ID {
	var out []transport.ID
	for _, r := range c.Replicas() {
		if r.Store().Restores() == 0 {
			out = append(out, r.ID())
		}
	}
	return out
}

// Close shuts everything down.
func (c *Cluster) Close() {
	c.mu.Lock()
	for _, cancel := range c.obsCancels {
		cancel()
	}
	c.obsCancels = nil
	reps := make([]*core.Replica, len(c.replicas))
	copy(reps, c.replicas)
	for i := range c.replicas {
		c.replicas[i] = nil
	}
	c.mu.Unlock()
	for _, r := range reps {
		if r != nil {
			_ = r.Close()
		}
	}
	c.net.Close()
}

// WaitConverged blocks until the cluster is quiescent — every live replica
// reports an empty commit pipeline: nothing in its coalescer, nothing queued
// or pending in its GCS endpoint — and every live replica's store snapshot is
// identical (same boxes, same latest values and writers), or the timeout
// expires. Equal stores alone do not show convergence: a write-set still in
// flight, even one of an operation that already failed, leaves them equal
// until it lands.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		diff := c.inFlight()
		if diff == "" {
			diff = c.divergence()
		}
		if diff == "" {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("cluster: stores did not converge within %v: %s", timeout, diff)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inFlight describes the first live replica whose commit pipeline still
// holds a message, or returns "". A message delivered nowhere yet is pending
// at its sender at least; one delivered somewhere but not everywhere shows as
// a store divergence. Retained messages are not in flight: they were
// delivered here and wait only for news of their stability, which a quiet
// group may never send.
func (c *Cluster) inFlight() string {
	for _, r := range c.Replicas() {
		q := r.Stats().Queues
		q.GCS.URBRetained = 0
		if q.CoalescerPending != 0 || q.GCS != (gcs.QueueStats{}) {
			return fmt.Sprintf("replica %d has messages in flight: %+v", r.ID(), q)
		}
	}
	return ""
}

// divergence returns a description of the first store mismatch, or "".
func (c *Cluster) divergence() string {
	live := c.Replicas()
	if len(live) < 2 {
		return ""
	}
	ref := live[0].Store().Snapshot()
	for _, r := range live[1:] {
		snap := r.Store().Snapshot()
		if len(snap.Boxes) != len(ref.Boxes) {
			return fmt.Sprintf("replica %d has %d boxes, replica %d has %d",
				live[0].ID(), len(ref.Boxes), r.ID(), len(snap.Boxes))
		}
		for i := range ref.Boxes {
			a, b := ref.Boxes[i], snap.Boxes[i]
			// DeepEqual: box values may hold slices or maps (immutable by
			// contract but not comparable with ==).
			if a.Box != b.Box || a.Writer != b.Writer || !reflect.DeepEqual(a.Value, b.Value) {
				return fmt.Sprintf("box %q: replica %d has %v(%v), replica %d has %v(%v)",
					a.Box, live[0].ID(), a.Value, a.Writer, r.ID(), b.Value, b.Writer)
			}
		}
	}
	return ""
}

// TotalStats aggregates protocol counters across live replicas.
func (c *Cluster) TotalStats() core.Stats {
	var out core.Stats
	for _, r := range c.Replicas() {
		s := r.Stats()
		out.Commits += s.Commits
		out.Aborts += s.Aborts
		out.ReadOnly += s.ReadOnly
		out.Lease.Requested += s.Lease.Requested
		out.Lease.Reused += s.Lease.Reused
		out.Lease.Acquired += s.Lease.Acquired
		out.Lease.Stolen += s.Lease.Stolen
		out.Lease.Freed += s.Lease.Freed
	}
	return out
}

// CheckHistories verifies the per-box write-order witness of 1-copy
// serializability: for every box, the sequences of writer transactions at
// any two live replicas must agree on their common suffix (version GC and
// state transfer both truncate history from the old end, so prefixes may
// legitimately differ in length — but any order divergence in what both
// replicas retain is a serializability violation). Returns a description of
// the first divergence, or "" when all histories agree. The cluster must be
// quiescent.
func (c *Cluster) CheckHistories() string {
	live := c.Replicas()
	if len(live) < 2 {
		return ""
	}
	ref := live[0]
	snap := ref.Store().Snapshot()
	for _, bs := range snap.Boxes {
		want := ref.Store().VersionWriters(bs.Box)
		for _, r := range live[1:] {
			got := r.Store().VersionWriters(bs.Box)
			n := len(want)
			if len(got) < n {
				n = len(got)
			}
			a, b := want[len(want)-n:], got[len(got)-n:]
			for i := range a {
				if a[i] != b[i] {
					return fmt.Sprintf("box %q: suffix version %d written by %v at replica %d but %v at replica %d",
						bs.Box, i, a[i], ref.ID(), b[i], r.ID())
				}
			}
		}
	}
	return ""
}

// Preferred returns the replica that should execute a transaction over the
// given data items for maximal lease locality. It implements the
// locality-aware load-balancing direction of the paper's §6 (future work):
// routing every transaction on a data set to a deterministic owner replica
// keeps the corresponding leases resident there, turning lease rotation
// (one atomic broadcast + release per commit) into lease reuse (zero
// communication until the write-set broadcast).
//
// The owner is the rendezvous hash of the items over the running replicas in
// the primary component: a replica ejected from it cannot commit updates
// (ErrEjected), so it owns nothing until it is readmitted. When no running
// replica is in the primary, every running replica is a candidate. nil when
// none is running.
func (c *Cluster) Preferred(items []string) *core.Replica {
	live := c.Replicas()
	cands := make([]*core.Replica, 0, len(live))
	for _, r := range live {
		if r.InPrimary() {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		cands = live
	}
	ids := make([]transport.ID, len(cands))
	for i, r := range cands {
		ids[i] = r.ID()
	}
	i, ok := rendezvous(items, ids)
	if !ok {
		return nil
	}
	return cands[i]
}

// rendezvous picks a stable owner for an item set among candidates using
// highest-random-weight hashing keyed by the smallest item hash: any
// overlap-heavy family of item sets sharing its hottest item maps to one
// owner, the assignment survives membership changes for unaffected keys,
// and unrelated item sets spread evenly. It returns the owner's index in
// candidates; ok is false when candidates is empty.
func rendezvous(items []string, candidates []transport.ID) (_ int, ok bool) {
	if len(candidates) == 0 {
		return 0, false
	}
	var key uint64
	for i, it := range items {
		h := uint64(lease.Mapper{}.Class(it)) // FNV-1a
		if i == 0 || h < key {
			key = h
		}
	}
	var (
		best  int
		bestW uint64
	)
	for i, id := range candidates {
		w := mix64(key ^ (uint64(id) + 0x9e3779b97f4a7c15))
		if i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best, true
}

// mix64 is a 64-bit finalizer (splitmix64) giving rendezvous weights.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
