package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTestLog(t *testing.T, dir string, validSize int64, opts Options) *Log {
	t.Helper()
	l, err := OpenLog(LogPath(dir), validSize, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func replayAll(t *testing.T, dir string) (payloads [][]byte, validSize int64) {
	t.Helper()
	_, validSize, err := Replay(LogPath(dir), func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return payloads, validSize
}

// TestLogRoundTrip appends records and replays them back verbatim.
func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, Options{Policy: PolicyOff})
	want := [][]byte{[]byte("alpha"), {}, []byte("gamma with a longer payload")}
	for _, p := range want {
		if _, err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendEncodedFrames: a payload encoded into the reused frame is framed
// exactly as EncodeRecord frames it, an oversized frame is not kept, and an
// encode error writes nothing.
func TestAppendEncodedFrames(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, Options{Policy: PolicyOff})
	payloads := [][]byte{bytes.Repeat([]byte("x"), frameClamp+1), []byte("long record"), []byte("short")}
	var want []byte
	for _, p := range payloads {
		n, err := l.AppendEncoded(func(b []byte) ([]byte, error) { return append(b, p...), nil })
		if err != nil || n != headerSize+len(p) {
			t.Fatalf("AppendEncoded = %d, %v; want %d", n, err, headerSize+len(p))
		}
		if cap(l.frame) > frameClamp {
			t.Fatalf("log keeps a %d-byte frame, clamp is %d", cap(l.frame), frameClamp)
		}
		want = append(want, EncodeRecord(p)...)
	}
	boom := errors.New("unencodable")
	if _, err := l.AppendEncoded(func(b []byte) ([]byte, error) { return append(b, "partial"...), boom }); err != boom {
		t.Fatalf("AppendEncoded with a failing encoder = %v, want its error", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log is %d bytes, want the %d bytes EncodeRecord gives", len(got), len(want))
	}
}

// TestConcurrentAppendsShareNoFrame: appenders racing for the reused frame
// each write their own record intact.
func TestConcurrentAppendsShareNoFrame(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, Options{Policy: PolicyOff})
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				if _, err := l.Append([]byte(fmt.Sprintf("writer %d record %d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		seen[string(p)] = true
	}
	if len(got) != writers*each || len(seen) != writers*each {
		t.Fatalf("replayed %d records, %d distinct; want %d", len(got), len(seen), writers*each)
	}
}

// TestReplayMissingFile: a log that never existed is an empty log.
func TestReplayMissingFile(t *testing.T) {
	n, size, err := Replay(filepath.Join(t.TempDir(), "nope.log"), func([]byte) error {
		t.Fatal("fn called for missing file")
		return nil
	})
	if err != nil || n != 0 || size != 0 {
		t.Fatalf("Replay(missing) = (%d, %d, %v), want (0, 0, nil)", n, size, err)
	}
}

// corruption describes one way a log tail can be damaged and how much of the
// log must survive replay afterwards.
type corruption struct {
	name    string
	mutate  func(b []byte, recordOffsets []int64) []byte
	survive int // records that must still replay
}

// TestReplayStopsAtDamage is the torn-tail battery from the issue: torn tail,
// bit-flipped CRC, truncated length prefix. Recovery must stop at the last
// valid record — never panic, never deliver garbage.
func TestReplayStopsAtDamage(t *testing.T) {
	payloads := [][]byte{
		[]byte("record zero"),
		[]byte("record one, somewhat longer than the first"),
		[]byte("record two"),
	}
	cases := []corruption{
		{
			name: "torn tail: last record half-written",
			mutate: func(b []byte, offs []int64) []byte {
				cut := offs[2] + headerSize + 3 // partway into record 2's payload
				return b[:cut]
			},
			survive: 2,
		},
		{
			name: "torn header: only 5 of 8 header bytes",
			mutate: func(b []byte, offs []int64) []byte {
				return b[:offs[2]+5]
			},
			survive: 2,
		},
		{
			name: "bit-flipped CRC on middle record",
			mutate: func(b []byte, offs []int64) []byte {
				b[offs[1]+4] ^= 0x40 // flip a bit inside record 1's stored CRC
				return b
			},
			survive: 1,
		},
		{
			name: "bit-flipped payload byte on middle record",
			mutate: func(b []byte, offs []int64) []byte {
				b[offs[1]+headerSize] ^= 0x01
				return b
			},
			survive: 1,
		},
		{
			name: "truncated length prefix: 2 bytes of length remain",
			mutate: func(b []byte, offs []int64) []byte {
				return b[:offs[1]+2]
			},
			survive: 1,
		},
		{
			name: "absurd length prefix (would allocate 3GiB)",
			mutate: func(b []byte, offs []int64) []byte {
				binary.LittleEndian.PutUint32(b[offs[0]:], 3<<30)
				return b
			},
			survive: 0,
		},
		{
			name:    "empty file",
			mutate:  func(b []byte, offs []int64) []byte { return nil },
			survive: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := openTestLog(t, dir, 0, Options{Policy: PolicyOff})
			var offs []int64
			var off int64
			for _, p := range payloads {
				offs = append(offs, off)
				n, err := l.Append(p)
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				off += int64(n)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			raw, err := os.ReadFile(LogPath(dir))
			if err != nil {
				t.Fatalf("read log: %v", err)
			}
			if err := os.WriteFile(LogPath(dir), tc.mutate(raw, offs), 0o644); err != nil {
				t.Fatalf("write damaged log: %v", err)
			}

			got, validSize := replayAll(t, dir)
			if len(got) != tc.survive {
				t.Fatalf("replayed %d records after damage, want %d", len(got), tc.survive)
			}
			for i := 0; i < tc.survive; i++ {
				if !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("surviving record %d = %q, want %q", i, got[i], payloads[i])
				}
			}
			if tc.survive > 0 && validSize != offs[tc.survive-1]+headerSize+int64(len(payloads[tc.survive-1])) {
				t.Fatalf("validSize = %d, inconsistent with %d surviving records", validSize, tc.survive)
			}

			// Reopening at validSize must clip the damage so that appends land
			// on a clean tail and the new record replays.
			l2 := openTestLog(t, dir, validSize, Options{Policy: PolicyOff})
			if _, err := l2.Append([]byte("appended after recovery")); err != nil {
				t.Fatalf("post-recovery Append: %v", err)
			}
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			got2, _ := replayAll(t, dir)
			if len(got2) != tc.survive+1 {
				t.Fatalf("after reopen+append: %d records, want %d", len(got2), tc.survive+1)
			}
			if !bytes.Equal(got2[tc.survive], []byte("appended after recovery")) {
				t.Fatalf("appended record = %q", got2[tc.survive])
			}
		})
	}
}

// TestLogReset: truncation at a snapshot boundary empties the log.
func TestLogReset(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 0, Options{Policy: PolicyOff})
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("pre-snapshot %d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size after Reset = %d", l.Size())
	}
	if _, err := l.Append([]byte("post-snapshot")); err != nil {
		t.Fatalf("Append after Reset: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("post-snapshot")) {
		t.Fatalf("after Reset replay = %q, want just post-snapshot", got)
	}
}

// TestFsyncPolicies exercises the three policies' observable behavior: the
// OnFsync hook fires per-append under always, eventually under interval, and
// never under off.
func TestFsyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		dir := t.TempDir()
		var fsyncs int
		l := openTestLog(t, dir, 0, Options{
			Policy:  PolicyAlways,
			OnFsync: func(time.Duration) { fsyncs++ },
		})
		for i := 0; i < 3; i++ {
			if _, err := l.Append([]byte("x")); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if fsyncs != 3 {
			t.Fatalf("always policy issued %d fsyncs for 3 appends", fsyncs)
		}
	})
	t.Run("interval", func(t *testing.T) {
		dir := t.TempDir()
		ch := make(chan struct{}, 64)
		l := openTestLog(t, dir, 0, Options{
			Policy:   PolicyInterval,
			Interval: time.Millisecond,
			OnFsync: func(time.Duration) {
				select {
				case ch <- struct{}{}:
				default:
				}
			},
		})
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatalf("Append: %v", err)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("interval policy never fsynced a dirty log")
		}
		_ = l
	})
	t.Run("off", func(t *testing.T) {
		dir := t.TempDir()
		var fsyncs int
		l := openTestLog(t, dir, 0, Options{
			Policy:  PolicyOff,
			OnFsync: func(time.Duration) { fsyncs++ },
		})
		for i := 0; i < 3; i++ {
			if _, err := l.Append([]byte("x")); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if fsyncs != 0 {
			t.Fatalf("off policy issued %d fsyncs", fsyncs)
		}
	})
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"":         PolicyInterval,
		"interval": PolicyInterval,
		"always":   PolicyAlways,
		"off":      PolicyOff,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// TestSnapshotRoundTrip: write-then-read, plus atomic replacement.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if b, err := ReadSnapshot(dir); err != nil || b != nil {
		t.Fatalf("ReadSnapshot(empty dir) = (%v, %v)", b, err)
	}
	if err := WriteSnapshot(dir, []byte("state v1")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := WriteSnapshot(dir, []byte("state v2")); err != nil {
		t.Fatalf("WriteSnapshot (replace): %v", err)
	}
	b, err := ReadSnapshot(dir)
	if err != nil || !bytes.Equal(b, []byte("state v2")) {
		t.Fatalf("ReadSnapshot = (%q, %v)", b, err)
	}
}

// TestSnapshotCorruption: a damaged snapshot must be detected, not decoded.
func TestSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, []byte("important state")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(SnapshotPath(dir), raw, 0o644); err != nil {
		t.Fatalf("write damaged snapshot: %v", err)
	}
	if _, err := ReadSnapshot(dir); err == nil {
		t.Fatal("ReadSnapshot accepted a corrupt snapshot")
	}
	if err := RemoveSnapshot(dir); err != nil {
		t.Fatalf("RemoveSnapshot: %v", err)
	}
	if b, err := ReadSnapshot(dir); err != nil || b != nil {
		t.Fatalf("ReadSnapshot after remove = (%v, %v)", b, err)
	}
}

// TestDecodeRecordTrailing: DecodeRecord reports the exact frame size so a
// snapshot file with trailing bytes is rejected by the caller's n != len
// check.
func TestDecodeRecordTrailing(t *testing.T) {
	frame := EncodeRecord([]byte("abc"))
	payload, n, ok := DecodeRecord(append(frame, 0xEE))
	if !ok || n != len(frame) || !bytes.Equal(payload, []byte("abc")) {
		t.Fatalf("DecodeRecord = (%q, %d, %v)", payload, n, ok)
	}
}

// TestConcurrentSyncWaitsForFsyncInFlight holds one fsync and appends beside
// it under PolicyAlways: the second Append must not return while the first
// fsync is running, and when that fsync fails, both appenders and every later
// Sync must see its error.
func TestConcurrentSyncWaitsForFsyncInFlight(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 0, Options{Policy: PolicyAlways})
	injected := errors.New("injected fsync failure")
	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	l.fsync = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(held)
			<-release
			return injected
		}
		return f.Sync()
	}

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { _, err := l.Append([]byte("first")); first <- err }()
	<-held
	go func() { _, err := l.Append([]byte("second")); second <- err }()
	select {
	case err := <-second:
		t.Fatalf("second Append returned %v while the first fsync was still running", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	for name, ch := range map[string]chan error{"first": first, "second": second} {
		select {
		case err := <-ch:
			if !errors.Is(err, injected) {
				t.Fatalf("%s Append = %v, want the failed fsync's error", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s Append never returned", name)
		}
	}
	if err := l.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync after a failed fsync = %v, want the sticky error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d fsyncs issued, want 1: nothing can be made durable after a failure", n)
	}
}

// TestAppendDuringFsyncGetsItsOwnFsync: a record written while another
// record's fsync is running is not covered by that fsync. Its Append waits
// for it and then issues a second one; only then does it return.
func TestAppendDuringFsyncGetsItsOwnFsync(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 0, Options{Policy: PolicyAlways})
	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	l.fsync = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(held)
			<-release
		}
		return f.Sync()
	}

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { _, err := l.Append([]byte("first")); first <- err }()
	<-held
	go func() { _, err := l.Append([]byte("second")); second <- err }()
	select {
	case err := <-second:
		t.Fatalf("second Append returned %v while the first fsync was still running", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	for name, ch := range map[string]chan error{"first": first, "second": second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s Append = %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s Append never returned", name)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("%d fsyncs issued, want 2: the second record was written after the first fsync began", n)
	}
}

// TestSyncSkipsCoveredRecords: Sync fsyncs only when something was written
// since the last successful fsync began; a Reset counts as a write, since the
// truncation must reach the disk too.
func TestSyncSkipsCoveredRecords(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 0, Options{Policy: PolicyOff})
	var calls int
	l.fsync = func(f *os.File) error { calls++; return f.Sync() }
	steps := []struct {
		name  string
		write func() error
		want  int
	}{
		{"empty log", func() error { return nil }, 0},
		{"two appends", func() error {
			for _, p := range []string{"a", "b"} {
				if _, err := l.Append([]byte(p)); err != nil {
					return err
				}
			}
			return nil
		}, 1},
		{"nothing new", func() error { return nil }, 1},
		{"one more append", func() error { _, err := l.Append([]byte("c")); return err }, 2},
		{"reset", l.Reset, 3},
	}
	for _, s := range steps {
		if err := s.write(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for i := 0; i < 2; i++ {
			if err := l.Sync(); err != nil {
				t.Fatalf("%s: Sync: %v", s.name, err)
			}
		}
		if calls != s.want {
			t.Fatalf("%s: %d fsyncs issued in all, want %d", s.name, calls, s.want)
		}
	}
}

// TestCloseWaitsForFsyncInFlight: Close does not close the file under an
// fsync that is still running, and the records it covered replay afterwards.
func TestCloseWaitsForFsyncInFlight(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(LogPath(dir), 0, Options{Policy: PolicyOff})
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	l.fsync = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(held)
			<-release
		}
		return f.Sync()
	}
	if _, err := l.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	synced, closed := make(chan error, 1), make(chan error, 1)
	go func() { synced <- l.Sync() }()
	<-held
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v while an fsync was still running", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	for name, ch := range map[string]chan error{"Sync": synced, "Close": closed} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s = %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned", name)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d fsyncs issued, want 1: Close found the record already covered", n)
	}
	if payloads, _ := replayAll(t, dir); len(payloads) != 1 || string(payloads[0]) != "record" {
		t.Fatalf("replayed %q, want the one record", payloads)
	}
}
