package main

import (
	"errors"
	"testing"

	"github.com/alcstm/alc/internal/transport"
	"github.com/alcstm/alc/internal/wire"
)

// fakeTransport records what reaches it.
type fakeTransport struct {
	inbox  chan transport.Message
	done   chan struct{}
	sent   []transport.Message // From holds the destination
	err    error
	closed int
}

func (f *fakeTransport) Self() transport.ID              { return 1 }
func (f *fakeTransport) Inbox() <-chan transport.Message { return f.inbox }
func (f *fakeTransport) Done() <-chan struct{}           { return f.done }
func (f *fakeTransport) Close() error                    { f.closed++; return f.err }
func (f *fakeTransport) Send(to transport.ID, p any) error {
	f.sent = append(f.sent, transport.Message{From: to, Payload: p})
	return f.err
}

// Stand-ins for the gcs message types, which classify knows by name.
type (
	urbData    struct{ Body any }
	urbAck     struct{}
	heartbeat  struct{}
	orderBatch struct{}
	vcPrepare  struct{}
)

func TestTracedTransportPassesEverythingThrough(t *testing.T) {
	for _, on := range []bool{false, true} {
		inner := &fakeTransport{inbox: make(chan transport.Message), done: make(chan struct{}), err: errors.New("inner")}
		tr := newTracer()
		tr.on.Store(on)
		var d transport.Transport = &tracedTransport{Transport: inner, t: tr, replica: 1}

		if d.Self() != 1 || d.Inbox() != (<-chan transport.Message)(inner.inbox) || d.Done() != (<-chan struct{})(inner.done) {
			t.Errorf("on=%t: Self, Inbox or Done not passed through", on)
		}
		payloads := []any{&urbData{Body: []byte("x")}, &urbAck{}, "to self", &transport.ShardEnvelope{Shard: 1, Body: &heartbeat{}}}
		dests := []transport.ID{0, 2, 1, 2}
		// Enough sends that one is sampled for the codec; unregistered
		// stand-in types fail to encode, which must not disturb the send.
		for i := 0; i < 2*sampleEvery; i++ {
			for j, p := range payloads {
				if err := d.Send(dests[j], p); err != inner.err {
					t.Fatalf("on=%t: Send returned %v, want the inner error", on, err)
				}
			}
		}
		if len(inner.sent) != 2*sampleEvery*len(payloads) {
			t.Fatalf("on=%t: %d sends reached the transport, want %d", on, len(inner.sent), 2*sampleEvery*len(payloads))
		}
		for i, m := range inner.sent {
			if m.From != dests[i%len(dests)] || m.Payload != payloads[i%len(payloads)] {
				t.Fatalf("on=%t: send %d reached the transport as (%v, %v)", on, i, m.From, m.Payload)
			}
		}
		if err := d.Close(); err != inner.err || inner.closed != 1 {
			t.Errorf("on=%t: Close not passed through", on)
		}
		wantFrames := int64(0)
		if on {
			wantFrames = 2 * sampleEvery * 3 // the send to self is not a frame
		}
		if got := tr.frames.Load(); got != wantFrames {
			t.Errorf("on=%t: counted %d frames, want %d", on, got, wantFrames)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		payload any
		want    msgClass
	}{
		{&urbData{Body: "a write-set"}, msgData},
		{&urbData{Body: nil}, msgData},
		{&urbData{Body: &orderBatch{}}, msgOrder},
		{&urbData{Body: orderBatch{}}, msgOrder},
		{&urbAck{}, msgAck},
		{&heartbeat{}, msgHeartbeat},
		{&vcPrepare{}, msgOther},
		{"a string", msgOther},
	}
	for _, c := range cases {
		for range 2 { // second time from the cache
			if got := classify(c.payload); got != c.want {
				t.Errorf("classify(%T %v) = %d, want %d", c.payload, c.payload, got, c.want)
			}
		}
	}
}

func TestTracedTransportCountsInsideEnvelopes(t *testing.T) {
	inner := &fakeTransport{}
	tr := newTracer()
	tr.on.Store(true)
	d := &tracedTransport{Transport: inner, t: tr}
	_ = d.Send(0, &transport.GroupEnvelope{Envs: []*transport.ShardEnvelope{
		{Shard: 0, Body: &urbData{Body: "a"}}, {Shard: 1, Body: &urbData{Body: "b"}}}})
	_ = d.Send(0, &transport.ShardEnvelope{Shard: 1, Body: &urbAck{}})
	_ = d.Send(0, &urbAck{})
	if f, mux, data, ack := tr.frames.Load(), tr.muxFrames.Load(), tr.sends[msgData].Load(), tr.sends[msgAck].Load(); f != 3 || mux != 2 || data != 2 || ack != 2 {
		t.Errorf("frames=%d mux=%d data=%d ack=%d, want 3 2 2 2", f, mux, data, ack)
	}
}

type fakeBackend struct {
	calls []wire.Request
}

func (f *fakeBackend) Exec(op wire.Op, key string, arg int64) (int64, error) {
	f.calls = append(f.calls, wire.Request{Op: op, Key: key, Arg: arg})
	return arg * 2, errors.New(key)
}

func TestTracedBackendPassesEverythingThrough(t *testing.T) {
	for _, on := range []bool{false, true} {
		inner := &fakeBackend{}
		tr := newTracer()
		tr.on.Store(on)
		b := &tracedBackend{inner: inner, t: tr, replica: 1}
		for i := 1; i <= 2*sampleEvery; i++ {
			v, err := b.Exec(wire.OpInc, "k", int64(i))
			if v != int64(2*i) || err == nil || err.Error() != "k" {
				t.Fatalf("on=%t: Exec returned (%d, %v)", on, v, err)
			}
		}
		if len(inner.calls) != 2*sampleEvery || inner.calls[4] != (wire.Request{Op: wire.OpInc, Key: "k", Arg: 5}) {
			t.Fatalf("on=%t: backend saw %d calls, fifth %+v", on, len(inner.calls), inner.calls[4])
		}
		wantSpans := 0
		if on {
			wantSpans = 2 // one request in sampleEvery
		}
		if len(tr.spans) != wantSpans {
			t.Errorf("on=%t: %d spans, want %d", on, len(tr.spans), wantSpans)
		}
		for _, s := range tr.spans {
			if s.Name != "backend.exec" || s.Parent != s.ID-layerBackendExec+layerClientOp || s.End < s.Start {
				t.Errorf("bad span %+v", s)
			}
		}
		if tr.open[1].Load() != 0 {
			t.Errorf("on=%t: a span is still open after Exec returned", on)
		}
	}
}
