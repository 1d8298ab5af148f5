package replica

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// LogName is the file name the leader appends records to inside its
// -log-dir. Rotated segments sit beside it as replica-NNNNNN.log.
const LogName = "replica.log"

// Log is an append-only on-disk record log: the durable form of the
// replication stream. Records are written frame-by-frame exactly as
// they travel on the wire, so a follower replaying the file runs the
// same decode path as one subscribed over TCP. With a byte cap armed
// (SetMaxBytes) the live file rotates to a numbered segment once it
// outgrows the cap; the caller seeds the fresh file with a full
// checkpoint so every segment — and in particular the live one —
// replays to a complete snapshot on its own.
type Log struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	w        *bufio.Writer
	size     int64
	maxBytes int64
	seq      int // number the next rotated segment takes

	// full locates the last full record Append wrote to the live file,
	// the one a publisher may serve a bootstrap from (zero: none). A
	// failed append clears it: the file's length is then unknown, and
	// the writer's error sticks, so no later append sets it again.
	full fullPlace
}

// fullPlace is a full record's version and its frame's extent in the live
// file.
type fullPlace struct {
	version uint64
	off, n  int64
}

// segmentName renders the rotated-segment file name for sequence n.
func segmentName(n int) string {
	return fmt.Sprintf("replica-%06d.log", n)
}

// segmentSeq parses a rotated-segment file name, reporting ok=false
// for anything else.
func segmentSeq(name string) (int, bool) {
	num, found := strings.CutPrefix(name, "replica-")
	num, ok := strings.CutSuffix(num, ".log")
	if !found || !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 || segmentName(n) != name {
		return 0, false
	}
	return n, true
}

// OpenLog opens (creating if needed) the record log inside dir for
// appending. A reopened log resumes its size accounting from the file
// and its segment numbering from whatever rotations already happened.
func OpenLog(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: log dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("replica: open log: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("replica: stat log: %w", err)
	}
	l := &Log{dir: dir, f: f, w: bufio.NewWriter(f), size: st.Size()}
	if segs, err := Segments(dir); err == nil {
		for _, s := range segs {
			if n, ok := segmentSeq(filepath.Base(s)); ok && n >= l.seq {
				l.seq = n + 1
			}
		}
	}
	return l, nil
}

// SetMaxBytes arms size-based rotation: once the live file holds at
// least n bytes the log reports RotateDue, and the next Rotate call
// retires it to a numbered segment. n ≤ 0 disables rotation.
func (l *Log) SetMaxBytes(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.maxBytes = n
}

// RotateDue reports whether the live file has outgrown the armed byte
// cap.
func (l *Log) RotateDue() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxBytes > 0 && l.size >= l.maxBytes
}

// Rotate retires the live file to the next numbered segment and starts
// a fresh one seeded with full — a framed full-snapshot checkpoint of
// the version the stream has reached — so the new segment (and a
// follower replaying only it) is self-contained.
func (l *Log) Rotate(version uint64, full []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.full = fullPlace{}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	live := filepath.Join(l.dir, LogName)
	if err := os.Rename(live, filepath.Join(l.dir, segmentName(l.seq))); err != nil {
		return fmt.Errorf("replica: rotate log: %w", err)
	}
	l.seq++
	f, err := os.OpenFile(live, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("replica: rotate log: %w", err)
	}
	l.f, l.w = f, bufio.NewWriter(f)
	if _, err := l.w.Write(full); err != nil {
		return err
	}
	l.size = int64(len(full))
	_ = version // the checkpoint frame already carries it
	return l.w.Flush()
}

// Append writes one framed record and flushes it to the OS, so a
// follower tailing the file sees complete frames only. A full record's
// place in the file is remembered for OpenFull.
func (l *Log) Append(frame []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := l.size
	_, err := l.w.Write(frame)
	if err == nil {
		err = l.w.Flush()
	}
	if err != nil {
		l.full = fullPlace{}
		return err
	}
	l.size += int64(len(frame))
	if v, ok := fullVersion(frame); ok {
		l.full = fullPlace{version: v, off: off, n: int64(len(frame))}
	}
	return nil
}

// OpenFull opens the frame of the full record of the given version for
// reading, when it is the last full record Append wrote to the live
// file: a read-only handle on that file, positioned at the frame, and
// the frame's length. It reports false otherwise — another version, a
// rotation since (Rotate forgets the place), or a failed append. The
// frame's bytes are never written again, so the handle reads them intact
// whatever is appended or rotated after it opens; the caller closes it.
func (l *Log) OpenFull(version uint64) (*os.File, int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full.n == 0 || l.full.version != version {
		return nil, 0, false
	}
	f, err := os.Open(filepath.Join(l.dir, LogName))
	if err != nil {
		return nil, 0, false
	}
	if _, err := f.Seek(l.full.off, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, false
	}
	return f, l.full.n, true
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Segments lists a log directory's record files in replay order:
// every rotated segment ascending by sequence number, then the live
// log. Each rotated boundary starts with a full checkpoint, so the
// concatenation replays as one seamless stream (and the live file
// alone still replays to the current snapshot).
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("replica: log dir: %w", err)
	}
	type seg struct {
		n    int
		path string
	}
	var segs []seg
	live := false
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Name() == LogName {
			live = true
			continue
		}
		if n, ok := segmentSeq(e.Name()); ok {
			segs = append(segs, seg{n, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	out := make([]string, 0, len(segs)+1)
	for _, s := range segs {
		out = append(out, s.path)
	}
	if live {
		out = append(out, filepath.Join(dir, LogName))
	}
	return out, nil
}

// ReplayLog decodes every record in the log file at path, invoking
// apply in order. A cleanly-truncated final frame (leader killed
// mid-append) terminates the replay without error; a corrupt frame
// earlier in the file is reported. When path is a log DIRECTORY, every
// segment replays in rotation order followed by the live log.
func ReplayLog(path string, apply func(*Record) error) error {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		paths, err := Segments(path)
		if err != nil {
			return err
		}
		for _, p := range paths {
			if err := replayFile(p, apply); err != nil {
				return err
			}
		}
		return nil
	}
	return replayFile(path, apply)
}

func replayFile(path string, apply func(*Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("replica: open log: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for n := 0; ; n++ {
		rec, err := ReadRecord(br)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("replica: log record %d in %s: %w", n, filepath.Base(path), err)
		}
		if err := apply(rec); err != nil {
			return fmt.Errorf("replica: applying log record %d in %s: %w", n, filepath.Base(path), err)
		}
	}
}
