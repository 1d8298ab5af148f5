package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"metarouting/internal/core"
	"metarouting/internal/exec"
	"metarouting/internal/replica"
	"metarouting/internal/serve"
	"metarouting/internal/telemetry"
)

// Cluster is the system under test, hosted in the benchmark process
// the way cmd/mrserve wires it across two: a leader (server +
// registry + publisher appending to an on-disk log + HTTP API) and one
// read-only follower (TCP subscriber + HTTP API), everything over
// loopback sockets.
type Cluster struct {
	Alg      *core.Algebra
	Srv      *serve.Server
	Reg      *telemetry.Registry
	Handler  *http.ServeMux
	Pub      *replica.Publisher
	Fol      *serve.Follower
	FHandler *http.ServeMux

	LeaderAddr   string
	FollowerAddr string

	// Applied observes the follower's apply callback: which version is
	// visible on the follower, and since when.
	Applied *applyTracker
	// Tap, non-nil on traced boots, wraps the publisher as the leader's
	// record sink and captures every frame.
	Tap *tapSink

	log       *replica.Log
	dir       string
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	servers   []*http.Server
	closeOnce sync.Once
}

// Boot builds a cluster from in under dir (the replica log's
// directory) and returns it once leader and follower both serve
// version 1, with the wall time from "inputs ready" to that point —
// one setup_s sample. It covers inference, backend construction, the
// initial solve, and the full-record bootstrap over TCP. A non-nil tr
// (the traced pass) installs the sink tap and span recording.
func Boot(in *Inputs, dir string, tr *Tracer) (*Cluster, time.Duration, error) {
	t0 := time.Now()
	c := &Cluster{dir: dir, Applied: newApplyTracker(tr)}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()
	var err error
	if c.Alg, err = core.InferString(in.W.Expr); err != nil {
		return nil, 0, err
	}
	eng := exec.For(c.Alg.OT, in.Origin)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	if c.log, err = replica.OpenLog(dir); err != nil {
		return nil, 0, err
	}
	// The publisher's bootstrap source is the server, which does not
	// exist until NewServer has already published version 1 into the
	// publisher — the same late-bound closure cmd/mrserve uses. No
	// subscriber is accepted before Serve starts below.
	c.Pub = replica.NewPublisher(func() (uint64, []byte, error) { return c.Srv.EncodeFull() }, c.log)
	var sink serve.RecordSink = c.Pub
	if tr != nil {
		c.Tap = &tapSink{inner: c.Pub, tr: tr}
		sink = c.Tap
	}
	c.Reg = telemetry.NewRegistry()
	opts := []serve.Option{
		serve.WithDeltaProps(c.Alg.Props),
		serve.WithRegistry(c.Reg),
		serve.WithReplication(sink),
	}
	if in.Announced != nil {
		opts = append(opts, serve.WithAnnouncements(in.Announced))
	}
	c.Srv, err = serve.NewServer(serve.Config{Engine: eng, Graph: in.Graph, Origins: in.Origins}, opts...)
	if err != nil {
		return nil, 0, err
	}

	pubLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.Pub.Serve(pubLn) //nolint:errcheck // returns nil on Close; a mid-run failure surfaces as a stalled follower
	}()
	c.Handler = serve.NewHandler(c.Srv, c.Reg)
	if c.LeaderAddr, err = c.listenHTTP(c.Handler); err != nil {
		return nil, 0, err
	}

	folReg := telemetry.NewRegistry()
	c.Fol = serve.NewFollower(folReg)
	c.FHandler = serve.NewFollowerHandler(c.Fol, folReg)
	if c.FollowerAddr, err = c.listenHTTP(c.FHandler); err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Subscribe returns only ctx.Err() once cancelled.
		replica.Subscribe(ctx, pubLn.Addr().String(), c.Fol.Version, func(rec *replica.Record) error { //nolint:errcheck
			return c.Applied.apply(c.Fol, rec)
		})
	}()
	if _, ok := c.Applied.waitFor(1, 60*time.Second); !ok {
		return nil, 0, fmt.Errorf("bench: follower did not bootstrap within 60s")
	}
	setup := time.Since(t0)
	ok = true
	return c, setup, nil
}

// listenHTTP serves h on a fresh loopback port.
func (c *Cluster) listenHTTP(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	c.servers = append(c.servers, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "mrbench: http server on %s: %v\n", ln.Addr(), err)
		}
	}()
	return ln.Addr().String(), nil
}

// Parity reports whether follower and leader serve the same version
// with the same routing checksum. The leader side flattens every
// column, so this belongs outside timed windows.
func (c *Cluster) Parity() error {
	lv := c.Srv.Snapshot().Version
	if _, ok := c.Applied.waitFor(lv, 30*time.Second); !ok {
		return fmt.Errorf("follower stuck at v%d, leader at v%d", c.Fol.Version(), lv)
	}
	if fv := c.Fol.Version(); fv != lv {
		return fmt.Errorf("follower at v%d, leader at v%d", fv, lv)
	}
	if lc, fc := c.Srv.Checksum(), c.Fol.Checksum(); lc != fc {
		return fmt.Errorf("checksum mismatch at v%d: leader %08x, follower %08x", lv, lc, fc)
	}
	return nil
}

// Close stops every goroutine and socket of the cluster, waits for
// them, and removes the log directory.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		if c.cancel != nil {
			c.cancel()
		}
		for _, hs := range c.servers {
			hs.Close()
		}
		if c.Pub != nil {
			c.Pub.Close()
		}
		c.wg.Wait()
		if c.Srv != nil {
			c.Srv.Close()
		}
		if c.log != nil {
			c.log.Close()
		}
		os.RemoveAll(c.dir)
	})
}

// applyTracker is the harness's follower-side boundary: the apply
// callback handed to replica.Subscribe. It times Follower.Apply from
// outside and remembers when each version became visible.
type applyTracker struct {
	tr *Tracer

	mu      sync.Mutex
	version uint64
	// at[v%len] is when version v's Apply returned.
	at   [1024]appliedAt
	wake chan struct{}
	// deltaBytes collects framed delta record sizes in arrival order.
	deltaBytes []int
	// onDelta, when set, sees each applied delta record and the time
	// its Apply returned — the open-loop storm tracker hangs here.
	onDelta func(d *replica.Delta, applied time.Time)
}

type appliedAt struct {
	version uint64
	t       time.Time
}

func newApplyTracker(tr *Tracer) *applyTracker {
	return &applyTracker{tr: tr, wake: make(chan struct{}), deltaBytes: make([]int, 0, 1<<14)}
}

// apply is the callback body: Follower.Apply bracketed by clock reads.
func (a *applyTracker) apply(f *serve.Follower, rec *replica.Record) error {
	t0 := time.Now()
	err := f.Apply(rec)
	t1 := time.Now()
	if err != nil {
		return err
	}
	v := f.Version()
	a.mu.Lock()
	if v > a.version {
		a.version = v
		a.at[v%uint64(len(a.at))] = appliedAt{v, t1}
		if rec.Kind == replica.KindDelta {
			a.deltaBytes = append(a.deltaBytes, rec.WireBytes)
			if a.onDelta != nil {
				a.onDelta(rec.Delta, t1)
			}
		}
		close(a.wake)
		a.wake = make(chan struct{})
	}
	a.mu.Unlock()
	if a.tr != nil {
		a.tr.followerApplied(v, t0, t1)
	}
	return nil
}

// waitFor blocks until the follower has applied version v or later and
// returns when v's own Apply returned (or, if v was skipped past or has
// left the ring, when the wait observed it).
func (a *applyTracker) waitFor(v uint64, timeout time.Duration) (time.Time, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		if a.version >= v {
			e := a.at[v%uint64(len(a.at))]
			a.mu.Unlock()
			if e.version == v {
				return e.t, true
			}
			return time.Now(), true
		}
		wake := a.wake
		a.mu.Unlock()
		select {
		case <-wake:
		case <-deadline.C:
			return time.Time{}, false
		}
	}
}

// Version is the newest version the callback has seen applied.
func (a *applyTracker) Version() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.version
}

// takeDeltaBytes returns and clears the delta record sizes seen so far.
func (a *applyTracker) takeDeltaBytes() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.deltaBytes
	a.deltaBytes = make([]int, 0, 1<<14)
	return out
}

// tapSink is the harness's leader-side boundary on traced runs: it
// wraps the publisher as the server's RecordSink, stamps entry and
// exit, and keeps every frame for the replay pass.
type tapSink struct {
	inner *replica.Publisher
	tr    *Tracer

	mu     sync.Mutex
	frames [][]byte
}

func (t *tapSink) PublishRecord(version uint64, frame []byte) error {
	t0 := time.Now()
	err := t.inner.PublishRecord(version, frame)
	t1 := time.Now()
	t.mu.Lock()
	t.frames = append(t.frames, frame)
	t.mu.Unlock()
	t.tr.published(version, t0, t1)
	return err
}

// Frames returns every captured frame in publish order.
func (t *tapSink) Frames() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([][]byte(nil), t.frames...)
}
