// Package wal implements the per-replica durability substrate: an
// append-only write-ahead log of opaque payload records plus an atomically
// replaced snapshot file, both CRC-framed so that recovery after a crash can
// tell exactly how much of the tail survived.
//
// Record framing is length-prefixed and checksummed:
//
//	[length uint32 LE][crc32c(payload) uint32 LE][payload...]
//
// Replay reads records until the first frame that cannot be proven intact — a
// torn tail (short header or short payload), a corrupt length, or a CRC
// mismatch — and stops there without error: everything before the damage is
// the durable prefix, everything after it never happened. The caller then
// reopens the log truncated to that prefix, so new appends land on a clean
// tail instead of hiding behind garbage.
//
// The snapshot file is written to a temporary name, fsynced and renamed into
// place, so a crash mid-write leaves the previous snapshot (or none) intact.
// Snapshot payloads use the same frame so a damaged file is detected rather
// than decoded.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Frame layout constants.
const (
	headerSize = 8 // uint32 length + uint32 crc32c
	// MaxRecordSize bounds a single record's payload. A corrupt length prefix
	// must not drive recovery into a multi-gigabyte allocation: anything
	// larger than this is treated as tail damage.
	MaxRecordSize = 64 << 20
)

// File names inside a replica's durability directory.
const (
	logName      = "wal.log"
	snapshotName = "snapshot.snap"
	snapshotTmp  = "snapshot.tmp"
)

// castagnoli is the CRC-32C table (iSCSI polynomial, hardware-accelerated on
// amd64/arm64), the conventional choice for storage framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a snapshot file whose frame does not verify. (Log
// replay never returns it: a broken log tail is a normal crash artifact and
// simply ends the replay.)
var ErrCorrupt = errors.New("wal: corrupt frame")

// LogPath returns the log file path inside a durability directory.
func LogPath(dir string) string { return filepath.Join(dir, logName) }

// SnapshotPath returns the snapshot file path inside a durability directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotName) }

// EncodeRecord frames one payload: length prefix, CRC-32C, payload.
func EncodeRecord(payload []byte) []byte {
	return appendRecord(make([]byte, 0, headerSize+len(payload)), payload)
}

// appendRecord appends the frame of payload to b.
func appendRecord(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// frameClamp is the largest frame capacity a Log retains between appends:
// one oversized record must not pin its buffer for the log's lifetime.
const frameClamp = 256 << 10

// DecodeRecord reads one framed record from b. It returns the payload, the
// total frame size consumed, and ok=false when the prefix of b is not a
// complete, intact frame (short header, short payload, oversized length, or
// CRC mismatch) — the torn-tail cases recovery must stop at.
func DecodeRecord(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < headerSize {
		return nil, 0, false
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length > MaxRecordSize {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(b[4:8])
	end := headerSize + int(length)
	if len(b) < end {
		return nil, 0, false
	}
	payload = b[headerSize:end]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, false
	}
	return payload, end, true
}

// Replay streams every intact record of the log at path into fn, in append
// order, stopping silently at the first frame that does not verify. It
// returns the number of records delivered and the byte offset of the end of
// the valid prefix — the size the log should be truncated to before new
// appends. A missing file is an empty log, not an error; fn's error aborts
// the replay and is returned.
func Replay(path string, fn func(payload []byte) error) (records int, validSize int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer f.Close()

	var header [headerSize]byte
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			return records, validSize, nil // clean EOF or torn header: stop
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		if length > MaxRecordSize {
			return records, validSize, nil // corrupt length: treat as tail damage
		}
		crc := binary.LittleEndian.Uint32(header[4:8])
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return records, validSize, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return records, validSize, nil // bit rot / torn rewrite
		}
		if err := fn(payload); err != nil {
			return records, validSize, err
		}
		records++
		validSize += headerSize + int64(length)
	}
}

// Policy selects when appended records are forced to stable storage.
type Policy int

const (
	// PolicyInterval fsyncs on a background timer while the log is dirty:
	// bounded data loss (one interval) at near-zero per-commit cost.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs after every append: zero data loss on power
	// failure, one fsync latency on every applied batch.
	PolicyAlways
	// PolicyOff never fsyncs: the OS page cache is the only durability.
	// Survives process crashes (kill -9), not machine crashes.
	PolicyOff
)

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyOff:
		return "off"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy maps the -fsync flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "interval":
		return PolicyInterval, nil
	case "always":
		return PolicyAlways, nil
	case "off":
		return PolicyOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
}

// Options parametrizes a Log.
type Options struct {
	// Policy selects the fsync discipline. Default PolicyInterval.
	Policy Policy
	// Interval is the PolicyInterval fsync period. Default 5ms.
	Interval time.Duration
	// OnFsync, when non-nil, observes the latency of every fsync issued
	// (metrics hook; must be cheap).
	OnFsync func(time.Duration)
}

// Log is an append-only record log. Appends issue one write syscall per
// record (no user-space buffering, so a killed process loses nothing that
// was appended) and are forced to stable storage per the configured policy.
//
// At most one fsync runs at a time. A Sync that finds one in flight waits
// for it and then fsyncs only if its own writes are still not covered, so
// concurrent appenders share fsyncs and none returns before its record is
// durable. A failed fsync's error is sticky: the kernel may have dropped the
// dirty pages, so no later Sync can prove anything durable again.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled when an fsync finishes
	f    *os.File
	opts Options
	// written and synced are logical log positions: written grows by one at
	// every append and truncation (it never moves back, Reset included);
	// synced is the value written had when the last successful fsync began.
	written, synced int64
	syncing         bool  // an fsync is in flight
	err             error // the first failed fsync's error
	size            int64
	closed          bool
	stop            chan struct{}
	done            chan struct{}
	// frame is the reused buffer Append frames a record in; it is written
	// under mu, so nothing references it once its append returns.
	frame []byte
	// fsync forces f to stable storage; tests substitute it to hold or fail
	// an fsync.
	fsync func(*os.File) error
}

// OpenLog opens (creating if needed) the log at path for appending,
// truncating it to validSize first — the valid-prefix length a prior Replay
// reported — so appends never land after a torn tail.
func OpenLog(path string, validSize int64, opts Options) (*Log, error) {
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Millisecond
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open log %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat log %s: %w", path, err)
	}
	if st.Size() > validSize {
		if err := f.Truncate(validSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validSize, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l := &Log{f: f, opts: opts, size: validSize, fsync: (*os.File).Sync}
	l.cond = sync.NewCond(&l.mu)
	if opts.Policy == PolicyInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// syncLoop is the PolicyInterval background fsync.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			dirty := l.written > l.synced && !l.closed && l.err == nil
			l.mu.Unlock()
			if dirty {
				_ = l.Sync()
			}
		}
	}
}

// Append frames payload and writes it to the log in one write call,
// returning the frame size. Under PolicyAlways the record is fsynced before
// Append returns. payload is not retained.
func (l *Log) Append(payload []byte) (int, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, errors.New("wal: log closed")
	}
	frame := appendRecord(l.frame[:0], payload)
	if cap(frame) <= frameClamp {
		l.frame = frame
	}
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(frame))
	l.written++
	pos := l.written
	l.mu.Unlock()
	if l.opts.Policy == PolicyAlways {
		if err := l.syncTo(pos); err != nil {
			return 0, err
		}
	}
	return len(frame), nil
}

// Sync forces every record appended so far to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	pos := l.written
	l.mu.Unlock()
	return l.syncTo(pos)
}

// syncTo returns once log position pos is durable, or with the sticky fsync
// error. It waits out an fsync in flight (whose outcome it must see) and
// issues one of its own only if that fsync did not cover pos.
func (l *Log) syncTo(pos int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil || l.closed || l.synced >= pos {
		return l.err
	}
	l.syncing = true
	upTo, f := l.written, l.f
	l.mu.Unlock()
	start := time.Now()
	err := l.fsync(f)
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start))
	}
	l.mu.Lock()
	l.syncing = false
	l.cond.Broadcast()
	if err != nil {
		l.err = fmt.Errorf("wal: fsync: %w", err)
		return l.err
	}
	l.synced = upTo
	return nil
}

// Size returns the log's current length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Reset truncates the log to empty. Called after a snapshot has been durably
// written: every logged record is covered by the snapshot, so the log
// restarts from the snapshot boundary.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log closed")
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset seek: %w", err)
	}
	l.size = 0
	l.written++
	return nil
}

// Close fsyncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	_ = l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	l.closed = true
	return l.f.Close()
}

// WriteSnapshot durably replaces the snapshot file in dir with the framed
// payload: write to a temporary file, fsync it, rename into place, fsync the
// directory. A crash at any point leaves either the old snapshot or the new
// one, never a torn mix.
func WriteSnapshot(dir string, payload []byte) error {
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot tmp: %w", err)
	}
	if _, err := f.Write(EncodeRecord(payload)); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, SnapshotPath(dir)); err != nil {
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	// Directory fsync makes the rename itself durable; best-effort on
	// filesystems that reject directory syncs.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// ReadSnapshot loads and verifies the snapshot file in dir. A missing file
// returns (nil, nil); a file whose frame does not verify returns ErrCorrupt
// (wrapped) — the caller must then discard the log too, because the log's
// records build on a base that can no longer be reconstructed.
func ReadSnapshot(dir string) ([]byte, error) {
	b, err := os.ReadFile(SnapshotPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: read snapshot: %w", err)
	}
	payload, n, ok := DecodeRecord(b)
	if !ok || n != len(b) {
		return nil, fmt.Errorf("%w: snapshot %s", ErrCorrupt, SnapshotPath(dir))
	}
	return payload, nil
}

// RemoveSnapshot deletes the snapshot file (corrupt-state recovery).
func RemoveSnapshot(dir string) error {
	err := os.Remove(SnapshotPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}
