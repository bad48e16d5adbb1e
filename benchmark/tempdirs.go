package main

import (
	"os"
	"sync"
)

// tempDirs are the directories the run has created and not yet removed. WAL
// directories may sit on tmpfs, where a leftover holds memory, so the exits
// that skip deferred calls (watchdog, signal) remove them too.
var tempDirs struct {
	mu   sync.Mutex
	live map[string]struct{}
}

// makeTempDir creates a directory under root and tracks it.
func makeTempDir(root, pattern string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, pattern)
	if err != nil {
		return "", err
	}
	tempDirs.mu.Lock()
	if tempDirs.live == nil {
		tempDirs.live = make(map[string]struct{})
	}
	tempDirs.live[dir] = struct{}{}
	tempDirs.mu.Unlock()
	return dir, nil
}

func removeTempDir(dir string) {
	_ = os.RemoveAll(dir)
	tempDirs.mu.Lock()
	delete(tempDirs.live, dir)
	tempDirs.mu.Unlock()
}

func removeAllTempDirs() {
	tempDirs.mu.Lock()
	defer tempDirs.mu.Unlock()
	for dir := range tempDirs.live {
		_ = os.RemoveAll(dir)
	}
	tempDirs.live = nil
}
