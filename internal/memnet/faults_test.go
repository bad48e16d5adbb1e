package memnet

import (
	"testing"
	"time"
)

// faultRun sends count messages 0→1 under the given faults and returns the
// sequence of payloads delivered (draining until the inbox stays quiet).
func faultRun(t *testing.T, f Faults, count int) []int {
	t.Helper()
	n := New(Config{Faults: f})
	defer n.Close()
	a := mustEndpoint(t, n, 0)
	b := mustEndpoint(t, n, 1)
	for i := 0; i < count; i++ {
		if err := a.Send(1, i); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	var got []int
	for {
		select {
		case msg := <-b.Inbox():
			got = append(got, msg.Payload.(int))
		case <-time.After(200 * time.Millisecond):
			return got
		}
	}
}

func TestFaultsDropAll(t *testing.T) {
	got := faultRun(t, Faults{Seed: 7, Drop: 1}, 50)
	if len(got) != 0 {
		t.Fatalf("Drop=1 delivered %d messages, want 0", len(got))
	}
}

func TestFaultsDuplicateAll(t *testing.T) {
	got := faultRun(t, Faults{Seed: 7, Duplicate: 1}, 20)
	if len(got) != 40 {
		t.Fatalf("Duplicate=1 delivered %d messages, want 40", len(got))
	}
	for i := 0; i < 20; i++ {
		if got[2*i] != i || got[2*i+1] != i {
			t.Fatalf("message %d: got pair (%d, %d), want (%d, %d)", i, got[2*i], got[2*i+1], i, i)
		}
	}
}

func TestFaultsDeterministicPerSeed(t *testing.T) {
	f := Faults{Seed: 42, Drop: 0.3, Duplicate: 0.2}
	first := faultRun(t, f, 200)
	second := faultRun(t, f, 200)
	if len(first) != len(second) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed, delivery %d differs: %d vs %d", i, first[i], second[i])
		}
	}
	other := faultRun(t, Faults{Seed: 43, Drop: 0.3, Duplicate: 0.2}, 200)
	if len(other) == len(first) {
		same := true
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault patterns")
		}
	}
}

func TestFaultsDelaySpike(t *testing.T) {
	n := New(Config{Faults: Faults{Seed: 1, Delay: 1, DelaySpike: 50 * time.Millisecond}})
	defer n.Close()
	a := mustEndpoint(t, n, 0)
	b := mustEndpoint(t, n, 1)
	start := time.Now()
	if err := a.Send(1, "x"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~50ms delay spike", elapsed)
	}
}

func TestSetFaultsRuntimeToggle(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := mustEndpoint(t, n, 0)
	b := mustEndpoint(t, n, 1)

	n.SetFaults(Faults{Seed: 3, Drop: 1})
	if err := a.Send(1, "lost"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case msg := <-b.Inbox():
		t.Fatalf("message delivered despite Drop=1: %v", msg.Payload)
	case <-time.After(100 * time.Millisecond):
	}

	n.SetFaults(Faults{})
	if err := a.Send(1, "through"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if msg := recvOne(t, b); msg.Payload != "through" {
		t.Fatalf("got %v, want %q", msg.Payload, "through")
	}
}

// Faults must not affect self-sends (a process does not lose messages to
// itself) and must respect partitions layered on top.
func TestFaultsSelfSendUnaffected(t *testing.T) {
	n := New(Config{Faults: Faults{Seed: 9, Drop: 1}})
	defer n.Close()
	a := mustEndpoint(t, n, 0)
	if err := a.Send(0, "self"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if msg := recvOne(t, a); msg.Payload != "self" {
		t.Fatalf("got %v, want self", msg.Payload)
	}
}
