//go:build unix

package tcpnet

import "syscall"

// writeFD writes b to the non-blocking socket fd once. A socket with no room
// (EAGAIN) or an interrupted call writes 0 bytes and is not an error.
func writeFD(fd uintptr, b []byte) (int, error) {
	n, err := syscall.Write(int(fd), b)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return 0, nil
	}
	return max(n, 0), err
}
