//go:build !race

package wire

import (
	"bytes"
	"testing"
)

// TestAllocBudgetReadFrame: with a buffer that has held a frame before,
// reading the next one allocates nothing. (The race detector allocates on
// its own, so this runs only without it.)
func TestAllocBudgetReadFrame(t *testing.T) {
	frame := AppendResponse(nil, Response{Seq: 1, Status: StatusOK, Value: 7})
	r := bytes.NewReader(frame)
	var buf []byte
	read := func() {
		r.Reset(frame)
		body, nbuf, err := ReadFrame(r, buf, MaxClientFrame)
		if err != nil || len(body) != len(frame)-frameHeaderLen-1 {
			t.Fatalf("ReadFrame = %d-byte body, %v", len(body), err)
		}
		buf = nbuf
	}
	read()
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Fatalf("ReadFrame allocates %v times with a warmed buffer, want 0", got)
	}
}
