//go:build !race

package clientsrv

import "testing"

// TestAllocBudgetClientInc holds a warmed Client.Inc round trip, client and
// server together, to 2 allocations: wire.DecodeClientFrame boxes the
// request on the server and the response on the client. The client's
// response channel is reused once its one response has been received; one
// made per request was 2 more.
func TestAllocBudgetClientInc(t *testing.T) {
	s := newTestServer(t, Config{Backend: newMapBackend()})
	c := Dial(ClientConfig{Addr: s.Addr(), Conns: 1})
	defer c.Close()
	for range 10 {
		if _, err := c.Inc("k", 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Inc("k", 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a warmed Inc round trip allocated %.1f times, want at most 2", allocs)
	}
}
