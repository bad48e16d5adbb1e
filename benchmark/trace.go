package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alcstm/alc/internal/clientsrv"
	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// All instrumentation of the traced run lives in this file: decorators
// around the transport each replica is given and around the client port's
// backend, and the span store they and the callers write to. No file of the
// program under test records a span.

const (
	// sampleEvery: one request in 16 leaves spans, and one send in 16 is
	// re-encoded and decoded to measure the codec on the real message mix.
	sampleEvery = 16
	maxSpans    = 100_000
)

// span is one timed interval. Times are nanoseconds since the tracer was
// created; Parent is 0 for a root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Replica int    `json:"replica"`
}

// msgClass groups the payload types a replica sends.
type msgClass int

const (
	msgData      msgClass = iota // gcs urbData carrying a URB or OAB payload
	msgAck                       // gcs urbAck
	msgOrder                     // gcs urbData carrying the sequencer's order batch
	msgHeartbeat                 // gcs heartbeat
	msgOther                     // view change, join, state transfer
	numMsgClasses
)

type tracer struct {
	t0 time.Time
	// on gates every counter and span: off during set-up, warm-up and the
	// untraced reference windows, so those run at the untraced run's cost
	// and the counters cover exactly the traced window.
	on atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int64

	nextID atomic.Uint64
	// open[r] is the sampled request span currently open on replica r
	// (0: none). Each replica has at most one caller request in flight, so
	// a send made meanwhile is attributed to it.
	open [numReplicas]atomic.Uint64

	sends     [numMsgClasses]atomic.Int64 // to other replicas, by class
	frames    atomic.Int64                // calls to the real transport's Send for another replica
	muxFrames atomic.Int64                // shard and group envelopes among frames
	sendNs    atomic.Int64

	sampled  atomic.Int64 // frames re-encoded
	encBytes atomic.Int64
	encNs    atomic.Int64
	decNs    atomic.Int64

	execCalls atomic.Int64 // backend.exec, every request
	execNs    atomic.Int64
	opCalls   atomic.Int64 // client.op, every request
	opNs      atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// requestID names the spans of one caller request: the caller and the
// ordinal of the request on its connection identify it on both sides of the
// client port, because a connection has one request outstanding.
// IDs stay below 2^53 so that tools reading the span file as JSON numbers
// keep them exact; net.send spans count up from 1 and never reach 2^40.
func requestID(caller int, ordinal uint64, layer uint64) uint64 {
	return uint64(caller+1)<<40 | ordinal<<4 | layer
}

const (
	layerClientOp    = 1
	layerBackendExec = 2
)

// writeSpans writes the span store as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans %s: %w", path, err)
	}
	return nil
}

// classes caches the class of each payload type seen.
var classes sync.Map // reflect.Type -> msgClass, or bodyField for urbData

// bodyField marks a type whose class depends on its Body field (urbData).
type bodyField int

// classify names a gcs payload by its type. The gcs message types are
// unexported, so this goes by type name; a renamed type lands in msgOther
// and the per-commit ratios in the README stop adding up, which is the cue.
func classify(p any) msgClass {
	t := reflect.TypeOf(p)
	c, ok := classes.Load(t)
	if !ok {
		c = classOfType(t)
		classes.Store(t, c)
	}
	if f, ok := c.(bodyField); ok {
		body := reflect.ValueOf(p).Elem().Field(int(f))
		if !body.IsNil() && strings.HasSuffix(body.Elem().Type().String(), "orderBatch") {
			return msgOrder
		}
		return msgData
	}
	return c.(msgClass)
}

func classOfType(t reflect.Type) any {
	if t == nil || t.Kind() != reflect.Pointer {
		return msgOther
	}
	switch t.Elem().Name() {
	case "urbAck":
		return msgAck
	case "heartbeat":
		return msgHeartbeat
	case "urbData":
		if f, ok := t.Elem().FieldByName("Body"); ok && f.Type.Kind() == reflect.Interface {
			return bodyField(f.Index[0])
		}
	}
	return msgOther
}

// tracedTransport decorates the transport a replica is built on.
type tracedTransport struct {
	transport.Transport
	t       *tracer
	replica int

	n   atomic.Uint64 // frames seen, for sampling
	mu  sync.Mutex    // guards buf
	buf []byte
}

func (d *tracedTransport) Send(to transport.ID, payload any) error {
	t := d.t
	if !t.on.Load() {
		return d.Transport.Send(to, payload)
	}
	if to == d.Self() {
		return d.Transport.Send(to, payload) // local delivery: no frame, no codec
	}
	d.count(payload)
	if d.n.Add(1)%sampleEvery == 0 {
		d.codecSample(payload)
	}
	start := time.Now()
	err := d.Transport.Send(to, payload)
	end := time.Now()
	t.frames.Add(1)
	t.sendNs.Add(int64(end.Sub(start)))
	if parent := t.open[d.replica].Load(); parent != 0 {
		t.record(span{Name: "net.send", Start: t.since(start), End: t.since(end),
			ID: t.nextID.Add(1), Parent: parent, Replica: d.replica})
	}
	return err
}

// count classifies what one frame carries, looking inside the sharded
// replica's envelopes.
func (d *tracedTransport) count(payload any) {
	switch env := payload.(type) {
	case *transport.ShardEnvelope:
		d.t.muxFrames.Add(1)
		d.t.sends[classify(env.Body)].Add(1)
	case *transport.GroupEnvelope:
		d.t.muxFrames.Add(1)
		for _, e := range env.Envs {
			d.t.sends[classify(e.Body)].Add(1)
		}
	default:
		d.t.sends[classify(payload)].Add(1)
	}
}

// codecSample encodes and decodes the payload the way tcpnet's writer and
// the peer's reader will, to time the codec and size the frame.
func (d *tracedTransport) codecSample(payload any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	out, err := wire.AppendEnvelope(d.buf[:0], int32(d.Self()), payload)
	mid := time.Now()
	if err != nil {
		return
	}
	d.buf = out
	// A frame is a 4-byte length and a version byte, then the body.
	if _, _, err := wire.DecodeEnvelope(out[5:]); err != nil {
		return
	}
	end := time.Now()
	d.t.sampled.Add(1)
	d.t.encBytes.Add(int64(len(out)))
	d.t.encNs.Add(int64(mid.Sub(start)))
	d.t.decNs.Add(int64(end.Sub(mid)))
}

// tracedBackend decorates the client port's backend on one replica.
type tracedBackend struct {
	inner   clientsrv.Backend
	t       *tracer
	replica int
	// ordinal counts every request executed, traced or not, so that it
	// stays equal to the ordinal the caller pinned to this replica keeps.
	ordinal atomic.Uint64
}

func (b *tracedBackend) Exec(op wire.Op, key string, arg int64) (int64, error) {
	n := b.ordinal.Add(1)
	t := b.t
	if !t.on.Load() {
		return b.inner.Exec(op, key, arg)
	}
	sampled := n%sampleEvery == 0
	id := requestID(b.replica, n, layerBackendExec)
	if sampled {
		t.open[b.replica].Store(id)
	}
	start := time.Now()
	v, err := b.inner.Exec(op, key, arg)
	end := time.Now()
	t.execCalls.Add(1)
	t.execNs.Add(int64(end.Sub(start)))
	if sampled {
		t.open[b.replica].Store(0)
		t.record(span{Name: "backend.exec", Start: t.since(start), End: t.since(end),
			ID: id, Parent: requestID(b.replica, n, layerClientOp), Replica: b.replica})
	}
	return v, err
}
