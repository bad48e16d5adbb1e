package memnet

import (
	"math/rand"
	"time"
)

// Faults configures seeded per-link fault injection: message loss, message
// duplication, and latency spikes. Faults compose with the crash and
// partition primitives to form the full failure surface the simulation
// harness (internal/sim) scripts.
//
// Every decision is drawn from a per-link generator seeded from
// (Seed, from, to), so a link's fault pattern is a deterministic function of
// the sequence of messages sent on it: replaying the same schedule seed
// reproduces the same drops, duplicates and spikes for the same traffic.
//
// The zero Faults value disables injection.
type Faults struct {
	// Seed seeds the per-link fault generators. As with Config.Seed, 0 is a
	// fixed deterministic default, not a random seed.
	Seed int64
	// Drop is the probability, per message, that the message is silently
	// lost in transit.
	Drop float64
	// Duplicate is the probability, per message, that the message is
	// delivered twice (modelling retransmission races; the GCS deduplicates).
	Duplicate float64
	// Delay is the probability, per message, that the message suffers an
	// extra DelaySpike of latency (modelling transient congestion). Because
	// links are FIFO, a spike delays everything queued behind it too.
	Delay float64
	// DelaySpike is the extra one-way latency added when a Delay fault
	// fires.
	DelaySpike time.Duration
}

// Active reports whether the configuration injects any fault.
func (f Faults) Active() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Delay > 0
}

// SetFaults installs (or, with the zero Faults, clears) fault injection on
// every present and future link. Calling it resets the per-link fault
// generators, so a given Faults value always produces the same decision
// sequence from the moment it is installed.
func (n *Network) SetFaults(f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
	n.faultEpoch++
	n.faultRNG = make(map[linkKey]*rand.Rand)
}

// faultDecision draws the fate of one message on the given link: dropped,
// duplicated, and/or delayed by an extra spike. Decisions come from a
// per-link generator seeded from (Faults.Seed, from, to), so they depend
// only on the link's message sequence, not on cross-link goroutine timing.
func (n *Network) faultDecision(key linkKey) (drop, dup bool, extra time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := n.faults
	if !f.Active() {
		return false, false, 0
	}
	rng, ok := n.faultRNG[key]
	if !ok {
		rng = rand.New(rand.NewSource(linkSeed(f.Seed, key)))
		n.faultRNG[key] = rng
	}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		return true, false, 0
	}
	if f.Duplicate > 0 && rng.Float64() < f.Duplicate {
		dup = true
	}
	if f.Delay > 0 && rng.Float64() < f.Delay {
		extra = f.DelaySpike
	}
	return false, dup, extra
}

// linkSeed derives a per-link generator seed from the schedule seed and the
// link's endpoints (splitmix64 finalizer over a simple combination).
func linkSeed(seed int64, key linkKey) int64 {
	x := uint64(seed)
	if x == 0 {
		x = 1
	}
	x ^= uint64(key.from)<<32 | uint64(uint32(key.to))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	s := int64(x)
	if s == 0 {
		s = 1
	}
	return s
}
