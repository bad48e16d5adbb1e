// Package wal implements the per-replica durability substrate: a directory
// that holds one append-only log of opaque, CRC-framed payload records, so
// that recovery after a crash can tell exactly how much of the tail survived.
//
// Record framing is length-prefixed and checksummed:
//
//	[length uint32 LE][crc32c(payload) uint32 LE][payload...]
//
// Replay reads records until the first frame that cannot be proven intact — a
// torn tail (short header or short payload), a corrupt length, or a CRC
// mismatch — and stops there without error: everything before the damage is
// the durable prefix, everything after it never happened. Open then truncates
// the file to that prefix, so new appends land on a clean tail instead of
// hiding behind garbage.
//
// A log may start with a base record, a cut of the state every later record
// builds on. Rewrite is the only way to put one there: it writes the base to
// a temporary file, fsyncs it, renames it over the log and fsyncs the
// directory, so a crash leaves either the old file whole or the new one, and
// the log never holds records a base already covers. Every fsync, a rewrite's
// included, follows the log's Policy.
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

// File names inside a durability directory.
const (
	logName = "wal.log"
	// tmpSuffix names the file a Rewrite builds beside the log.
	tmpSuffix = ".tmp"
)

// leftovers are the files Open removes from a durability directory: the
// temporary file of a Rewrite that crashed before its rename, and the
// snapshot files of the older layout, which kept the store cut beside the log.
var leftovers = []string{logName + tmpSuffix, "snapshot.snap", "snapshot.tmp"}

// castagnoli is the CRC-32C table (iSCSI polynomial, hardware-accelerated on
// amd64/arm64), the conventional choice for storage framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// LogPath returns the log file path inside a durability directory.
func LogPath(dir string) string { return filepath.Join(dir, logName) }

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
// order, stopping silently at the first frame that does not verify or the
// first record fn returns an error for. It returns the number of records fn
// accepted and the byte offset of the end of them — the size the log should
// be truncated to before new appends. A missing file is an empty log, not an
// error.
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
		if fn(payload) != nil {
			return records, validSize, nil // the caller's end of the log
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
	// OnFsync, when non-nil, observes the latency of every fsync that makes
	// appended records durable (metrics hook; must be cheap). A Rewrite's
	// fsyncs are the caller's to time.
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
	path string
	opts Options
	// written and synced are logical log positions: written grows by one at
	// every append and rewrite (it never moves back); synced is the value
	// written had when the last successful fsync began.
	written, synced int64
	syncing         bool  // an fsync is in flight
	err             error // the first failed fsync's error
	closed          bool
	stop            chan struct{}
	done            chan struct{}
	// frame is the reused buffer Append frames a record in; it is written
	// under mu, so nothing references it once its append returns.
	frame []byte
	// fsync forces a file — the log, a rewrite's new file or its directory —
	// to stable storage; tests substitute it (SetFsync) to count, hold or
	// fail fsyncs.
	fsync func(*os.File) error
}

// Open opens the log of durability directory dir, creating the directory if
// needed. It removes the leftovers of an interrupted Rewrite or of the older
// layout, hands every intact record to replay in order — the base record
// first, when the log has one — and truncates the file after the last record
// replay accepted: a torn tail, or the record replay returned an error for,
// and everything after it, never happened.
func Open(dir string, opts Options, replay func(payload []byte) error) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: durability dir: %w", err)
	}
	for _, name := range leftovers {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("wal: remove leftover: %w", err)
		}
	}
	_, validSize, err := Replay(LogPath(dir), replay)
	if err != nil {
		return nil, err
	}
	return OpenLog(LogPath(dir), validSize, opts)
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
	l := &Log{f: f, path: path, opts: opts, fsync: (*os.File).Sync}
	l.cond = sync.NewCond(&l.mu)
	if opts.Policy == PolicyInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// SetFsync replaces the function that forces a file to stable storage
// ((*os.File).Sync): tests count, hold or fail the log's fsyncs with it.
func (l *Log) SetFsync(fsync func(*os.File) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fsync = fsync
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
	upTo, f, fsync := l.written, l.f, l.fsync
	l.mu.Unlock()
	start := time.Now()
	err := fsync(f)
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

// Rewrite atomically replaces the log with a file that holds base as its one
// record, and appends continue on the new file. The base is written to a
// temporary file beside the log, which is fsynced, renamed over the log, and
// its directory fsynced — the fsyncs only under PolicyInterval and
// PolicyAlways, and not observed by Options.OnFsync. A crash before the
// rename leaves the old log whole (Open removes the temporary file); after
// it, the new one. On error the log is as it was.
func (l *Log) Rewrite(base []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return errors.New("wal: log closed")
	}
	tmp := l.path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	frame := appendRecord(l.frame[:0], base)
	if cap(frame) <= frameClamp {
		l.frame = frame
	}
	durable := l.opts.Policy != PolicyOff
	_, err = f.Write(frame)
	if err == nil && durable {
		err = l.fsync(f)
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	// The replaced file's last close frees its blocks, which waits on the
	// file system's journal (hundreds of milliseconds on a loaded ext4 disk,
	// under every policy): it runs off the caller's goroutine.
	go l.f.Close()
	l.f = f
	l.written++
	if durable {
		// The directory fsync makes the rename itself durable; best-effort
		// on filesystems that reject directory syncs.
		if d, err := os.Open(filepath.Dir(l.path)); err == nil {
			_ = l.fsync(d)
			_ = d.Close()
		}
		l.synced = l.written
	}
	return nil
}

// Close closes the log, fsyncing it first unless the policy is PolicyOff.
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
	if l.opts.Policy != PolicyOff {
		_ = l.Sync()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	l.closed = true
	return l.f.Close()
}
