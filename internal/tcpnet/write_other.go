//go:build !unix

package tcpnet

// writeFD writes nothing where no non-blocking descriptor write is at hand:
// every frame is then the background writer's.
func writeFD(uintptr, []byte) (int, error) { return 0, nil }
