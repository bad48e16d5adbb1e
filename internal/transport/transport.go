// Package transport defines the point-to-point messaging abstraction that the
// group communication service is built on. Two implementations exist:
// memnet (an in-process simulated network with configurable latency, used by
// tests, benchmarks and the experiment harness) and tcpnet (a real TCP
// transport for multi-machine deployments).
//
// The contract is deliberately weak, mirroring an asynchronous fail-stop
// distributed system: messages may be arbitrarily delayed and are lost if the
// destination has crashed, but a message between two correct processes is
// eventually delivered exactly once, and delivery is FIFO per (sender,
// receiver) pair. All stronger guarantees (reliable broadcast, total order,
// view synchrony) are layered on top by package gcs.
package transport

import "errors"

// ID identifies a process in the system. IDs are small non-negative integers
// assigned by the deployment (replica index); they are stable across views.
type ID int32

// Nobody is the zero ID value, used to mean "no process".
const Nobody ID = -1

// Message is a payload in flight between two processes. Payloads must be
// treated as immutable by both the sender (after Send) and all receivers: the
// in-memory transport passes them by reference.
type Message struct {
	From    ID
	Payload any
}

// ErrClosed is returned by Send after the local endpoint has been closed or
// has crashed.
var ErrClosed = errors.New("transport: endpoint closed")

// Transport is one process's handle on the network.
//
// Send is asynchronous and never blocks on the remote process; it may block
// briefly on local flow control. Sending to a crashed or partitioned process
// silently drops the message (asynchronous-system semantics): the sender
// cannot distinguish a slow link from a dead peer.
type Transport interface {
	// Self returns the local process ID.
	Self() ID
	// Send enqueues payload for delivery to process "to". Sending to Self
	// delivers locally without network latency.
	Send(to ID, payload any) error
	// Inbox returns the stream of incoming messages. The channel is never
	// closed while the endpoint is alive; after Close or a crash it stops
	// producing messages and Done is closed.
	Inbox() <-chan Message
	// Done is closed when the endpoint stops (Close or injected crash).
	Done() <-chan struct{}
	// Close shuts the endpoint down and releases its resources.
	Close() error
}

// ShardEnvelope has no producer, no consumer and no wire codec.
//
// Deprecated: kept only so benchmark/ compiles until its follow-up change
// drops the envelope cases from its transport decorator.
type ShardEnvelope struct {
	Shard uint8
	Body  any
}

// GroupEnvelope has no producer, no consumer and no wire codec.
//
// Deprecated: kept only so benchmark/ compiles until its follow-up change
// drops the envelope cases from its transport decorator.
type GroupEnvelope struct {
	Envs []*ShardEnvelope
}
