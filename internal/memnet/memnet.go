// Package memnet implements transport.Transport over in-process channels with
// a configurable simulated latency per network hop.
//
// The experiment harness uses memnet to reproduce the paper's cluster
// results on a single machine: the relative cost of the replication protocols
// (2 communication steps for a Uniform Reliable Broadcast vs 3+ for an Atomic
// Broadcast, plus queueing at the sequencer) is preserved because every
// message between distinct processes pays the configured one-way latency,
// while absolute throughput numbers are simulator-relative.
//
// memnet also provides the failure-injection surface used by the
// dependability tests and the simulation harness (internal/sim): process
// crashes, network partitions, and seeded per-link fault injection (message
// drop, duplication and delay spikes — see Faults), all reproducible from a
// single schedule seed.
package memnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/alcstm/alc/internal/transport"
)

// Config controls the simulated network.
type Config struct {
	// Latency is the one-way message delay between two distinct processes.
	// Zero means deliver as fast as the scheduler allows.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter) to each
	// message. Jitter can reorder messages between different sender/receiver
	// pairs but never within one pair (links are FIFO).
	Jitter time.Duration
	// PerMessageCost models receiver-side processing time: each endpoint
	// consumes messages serially at this rate, so a flooded receiver (for
	// example an atomic-broadcast sequencer) develops queueing delay — the
	// load effect behind the paper's Figure 3. Zero disables the model.
	PerMessageCost time.Duration
	// Seed seeds the jitter generator. Zero is NOT a random seed: it
	// explicitly selects a fixed deterministic default (equivalent to
	// Seed: 1), so that tests reproduce run-to-run by default. Callers that
	// want a fresh schedule every run pass a seed explicitly (the test
	// suites derive theirs from internal/randseed, which reads $ALC_SEED)
	// and log the value for reproduction.
	Seed int64
	// Faults configures seeded fault injection (drop/duplicate/delay-spike
	// per link); see Faults. The zero value disables injection. Faults can
	// also be installed or cleared at runtime with Network.SetFaults.
	Faults Faults
}

// queueSize bounds each link's in-flight queue and each endpoint inbox.
const queueSize = 16384

// Network is a simulated asynchronous network connecting a set of endpoints.
type Network struct {
	mu         sync.Mutex
	cfg        Config
	rng        *rand.Rand
	endpoints  map[transport.ID]*Endpoint
	links      map[linkKey]*link
	blocked    map[linkKey]bool // severed pairs (partition)
	faults     Faults
	faultEpoch uint64
	faultRNG   map[linkKey]*rand.Rand
	closed     bool
}

type linkKey struct {
	from, to transport.ID
}

// New creates an empty simulated network.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[transport.ID]*Endpoint),
		links:     make(map[linkKey]*link),
		blocked:   make(map[linkKey]bool),
		faults:    cfg.Faults,
		faultRNG:  make(map[linkKey]*rand.Rand),
	}
}

// Endpoint creates (or returns an error for a duplicate) the endpoint for id.
func (n *Network) Endpoint(id transport.ID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if old, ok := n.endpoints[id]; ok {
		select {
		case <-old.done:
			// A crashed process may be restarted: replace the dead endpoint.
		default:
			return nil, fmt.Errorf("memnet: endpoint %d already exists", id)
		}
	}
	ep := &Endpoint{
		id:    id,
		net:   n,
		inbox: make(chan transport.Message, queueSize),
		done:  make(chan struct{}),
	}
	n.endpoints[id] = ep
	return ep, nil
}

// Crash stops the endpoint for id: it no longer receives or sends messages.
// In-flight messages to it are dropped. Crashing an unknown or already
// crashed endpoint is a no-op.
func (n *Network) Crash(id transport.ID) {
	n.mu.Lock()
	ep := n.endpoints[id]
	n.mu.Unlock()
	if ep != nil {
		ep.stop()
	}
}

// Partition severs communication between every pair of processes that are in
// different groups. Processes absent from all groups can talk to nobody.
// Messages crossing a partition are silently dropped.
func (n *Network) Partition(groups ...[]transport.ID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
	side := make(map[transport.ID]int)
	for i, g := range groups {
		for _, id := range g {
			side[id] = i + 1
		}
	}
	for from := range n.endpoints {
		for to := range n.endpoints {
			if from == to {
				continue
			}
			sf, st := side[from], side[to]
			if sf == 0 || st == 0 || sf != st {
				n.blocked[linkKey{from, to}] = true
			}
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
}

// Close shuts down the network and every endpoint.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()

	for _, ep := range eps {
		ep.stop()
	}
	for _, l := range links {
		l.stop()
	}
}

// delay computes the latency for one message.
func (n *Network) delay() time.Duration {
	d := n.cfg.Latency
	if n.cfg.Jitter > 0 {
		n.mu.Lock()
		j := time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
		n.mu.Unlock()
		d += j
	}
	return d
}

// linkFor returns the FIFO delivery link from->to, creating it on first use.
func (n *Network) linkFor(from, to transport.ID) (*link, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	key := linkKey{from, to}
	if l, ok := n.links[key]; ok {
		return l, nil
	}
	if _, ok := n.endpoints[to]; !ok {
		return nil, fmt.Errorf("memnet: no endpoint %d", to)
	}
	l := newLink(n, key)
	n.links[key] = l
	return l, nil
}

func (n *Network) linkBlocked(key linkKey) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.blocked[key]
}

// Endpoint is one process's attachment to the simulated network.
type Endpoint struct {
	id    transport.ID
	net   *Network
	inbox chan transport.Message

	// busyMu/busyUntil implement the serial receiver-processing model: the
	// endpoint finishes absorbing one message PerMessageCost after it
	// started, and messages queue behind each other.
	busyMu    sync.Mutex
	busyUntil time.Time

	stopOnce sync.Once
	done     chan struct{}
}

var _ transport.Transport = (*Endpoint)(nil)

// Self returns the endpoint's process ID.
func (e *Endpoint) Self() transport.ID { return e.id }

// Inbox returns the incoming message stream.
func (e *Endpoint) Inbox() <-chan transport.Message { return e.inbox }

// Done is closed when the endpoint stops.
func (e *Endpoint) Done() <-chan struct{} { return e.done }

// Send enqueues a message for to. Self-sends bypass the network and incur no
// latency. Sends to crashed or partitioned destinations are silently dropped,
// mirroring an asynchronous network where the sender cannot observe loss.
func (e *Endpoint) Send(to transport.ID, payload any) error {
	select {
	case <-e.done:
		return transport.ErrClosed
	default:
	}
	msg := transport.Message{From: e.id, Payload: payload}
	if to == e.id {
		e.deliver(msg)
		return nil
	}
	l, err := e.net.linkFor(e.id, to)
	if err != nil {
		// Unknown destination behaves like a dead process: drop.
		return nil //nolint:nilerr // asynchronous-send semantics
	}
	l.send(msg, e.net.delay())
	return nil
}

// admissionDelay reserves the receiver's serial processing slot for one
// message arriving at the given time and returns how much later than
// arrival the message may be handed to the endpoint.
func (e *Endpoint) admissionDelay(arrival time.Time, cost time.Duration) time.Duration {
	if cost <= 0 {
		return 0
	}
	e.busyMu.Lock()
	defer e.busyMu.Unlock()
	start := arrival
	if e.busyUntil.After(start) {
		start = e.busyUntil
	}
	e.busyUntil = start.Add(cost)
	return e.busyUntil.Sub(arrival)
}

// Close stops the endpoint.
func (e *Endpoint) Close() error {
	e.stop()
	return nil
}

func (e *Endpoint) stop() {
	e.stopOnce.Do(func() { close(e.done) })
}

// deliver places msg in the inbox unless the endpoint has stopped. If the
// inbox is persistently full the message is dropped after a grace period:
// a stalled receiver is indistinguishable from a crashed one.
func (e *Endpoint) deliver(msg transport.Message) {
	// Check liveness first so a message to an already crashed endpoint is
	// dropped deterministically (select would otherwise pick randomly
	// between a closed done and a ready inbox).
	select {
	case <-e.done:
		return
	default:
	}
	select {
	case e.inbox <- msg:
	default:
		t := time.NewTimer(time.Second)
		defer t.Stop()
		select {
		case <-e.done:
		case e.inbox <- msg:
		case <-t.C:
		}
	}
}

// link is the FIFO delivery pipeline for one (from, to) pair. A dedicated
// goroutine sleeps each message through its latency so that per-pair FIFO
// order is preserved regardless of jitter.
type link struct {
	net  *Network
	key  linkKey
	ch   chan timedMessage
	done chan struct{}
	once sync.Once
}

type timedMessage struct {
	deliverAt time.Time
	msg       transport.Message
}

func newLink(n *Network, key linkKey) *link {
	l := &link{
		net:  n,
		key:  key,
		ch:   make(chan timedMessage, queueSize),
		done: make(chan struct{}),
	}
	go l.run()
	return l
}

// dst resolves the destination endpoint at delivery time, so that a restarted
// process (same ID, new endpoint) receives messages sent after its rebirth.
func (l *link) dst() *Endpoint {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	return l.net.endpoints[l.key.to]
}

func (l *link) send(msg transport.Message, delay time.Duration) {
	if l.net.linkBlocked(l.key) {
		return
	}
	drop, dup, extra := l.net.faultDecision(l.key)
	if drop {
		return
	}
	arrival := time.Now().Add(delay + extra)
	if cost := l.net.cfg.PerMessageCost; cost > 0 {
		if dst := l.dst(); dst != nil {
			arrival = arrival.Add(dst.admissionDelay(arrival, cost))
		}
	}
	copies := 1
	if dup {
		copies = 2
	}
	tm := timedMessage{deliverAt: arrival, msg: msg}
	for i := 0; i < copies; i++ {
		select {
		case l.ch <- tm:
		case <-l.done:
			return
		}
	}
}

func (l *link) stop() {
	l.once.Do(func() { close(l.done) })
}

func (l *link) run() {
	for {
		select {
		case <-l.done:
			return
		case tm := <-l.ch:
			if wait := time.Until(tm.deliverAt); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-l.done:
					t.Stop()
					return
				}
			}
			// Re-check the partition and destination at delivery time so
			// that messages in flight when a partition forms (or addressed
			// to a process that crashed meanwhile) are lost, and messages to
			// a restarted process reach its new incarnation.
			if dst := l.dst(); dst != nil && !l.net.linkBlocked(l.key) {
				dst.deliver(tm.msg)
			}
		}
	}
}
