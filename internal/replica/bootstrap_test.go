package replica

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// bootstrapFrame subscribes from version 0 and returns the first frame
// the publisher sends, as raw bytes.
func bootstrapFrame(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(EncodeSubscribe(0)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+int(binary.LittleEndian.Uint32(hdr[:]))+4)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(conn, frame[4:]); err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBootstrapServedFromLog: while the head is the last full record the
// publisher appended to its log, a cold subscriber's bootstrap is that
// record read back from the file, byte for byte the source's frame at
// head, and the source does not run. It runs — and its frame is what is
// sent — after a delta, after a rotation (even one seeded with the
// head's own full record), and on a publisher with no log.
func TestBootstrapServedFromLog(t *testing.T) {
	log, err := OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var head atomic.Uint64
	var calls atomic.Int32
	p := NewPublisher(func() (uint64, []byte, error) {
		calls.Add(1)
		v := head.Load()
		return v, fullAt(v), nil
	}, log)
	addr := startPublisher(t, p)

	check := func(step string, wantCalls int32) {
		t.Helper()
		got := bootstrapFrame(t, addr)
		if !bytes.Equal(got, fullAt(head.Load())) {
			t.Fatalf("%s: the bootstrap frame (%d bytes) is not the full record at head %d", step, len(got), head.Load())
		}
		if n := calls.Load(); n != wantCalls {
			t.Fatalf("%s: source ran %d times, want %d", step, n, wantCalls)
		}
	}
	publish(p, &head, 1, true)
	check("full record at head", 0)
	check("again", 0)
	publish(p, &head, 2, false)
	check("a delta since", 1)
	publish(p, &head, 3, true)
	check("a rebuild's full record at head", 1)
	if err := p.RotateLog(3, fullAt(3)); err != nil {
		t.Fatal(err)
	}
	check("after a rotation", 2)
	publish(p, &head, 4, true)
	check("a full record after the rotation", 2)

	var nilHead atomic.Uint64
	var nilCalls atomic.Int32
	q := countingPublisher(&nilHead, &nilCalls)
	publish(q, &nilHead, 1, true)
	if got := bootstrapFrame(t, startPublisher(t, q)); !bytes.Equal(got, fullAt(1)) || nilCalls.Load() != 1 {
		t.Fatalf("no log: the source ran %d times, want 1, and its frame must be sent", nilCalls.Load())
	}
}

// TestLogForgetsFullAfterFailedAppend: the log serves its last full
// record for that record's version only, and an append that fails
// leaves the file's length unknown, so none after it.
func TestLogForgetsFullAfterFailedAppend(t *testing.T) {
	l, err := OpenLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(fullAt(1)); err != nil {
		t.Fatal(err)
	}
	f, n, ok := l.OpenFull(1)
	if !ok || n != int64(len(fullAt(1))) {
		t.Fatalf("OpenFull(1) = %v, %d bytes; want the %d-byte record", ok, n, len(fullAt(1)))
	}
	f.Close()
	if _, _, ok := l.OpenFull(2); ok {
		t.Fatal("OpenFull(2) served a record of another version")
	}
	l.f.Close() // the next flush fails
	if err := l.Append(fullAt(2)); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if _, _, ok := l.OpenFull(1); ok {
		t.Fatal("OpenFull served a record after a failed append")
	}
	l.Close()
}

// TestReadNLandsOnLength: readN returns the n bytes it was handed, and
// its doublings end on n itself, so reading a frame allocates about
// twice its length, not three times: under 2n + 128 KiB at every size,
// 64 KiB boundaries and a bootstrap-sized 2.2 MB included.
func TestReadNLandsOnLength(t *testing.T) {
	for _, n := range []int{0, 1, 65535, 65536, 65537, 1 << 20, 2_170_572, 3<<20 + 5} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readN(bytes.NewReader(src), n)
		runtime.ReadMemStats(&after)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: %v, or the bytes differ", n, err)
		}
		if a := after.TotalAlloc - before.TotalAlloc; a > uint64(2*n+128<<10) {
			t.Fatalf("n=%d: allocated %d B, want at most 2n + 128 KiB = %d", n, a, 2*n+128<<10)
		}
	}
}
