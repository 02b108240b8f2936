package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/rpc"
	"repro/internal/shm"
)

const (
	fnXform  = 1
	rpcBytes = 64 // argument and output size
)

// rpcGeometry is the rpc-pair pool: two clients, the recovery plane, and a
// standby server; calls free what they allocate, so it stays small.
var rpcGeometry = layout.GeometryConfig{MaxClients: 16, NumSegments: 64, SegmentWords: 1 << 14}

// xform is the served function: the output is the argument reversed and
// masked, so the caller can check every byte it gets back.
func xform(c *shm.Client, args []layout.Addr, out layout.Addr) error {
	var in [rpcBytes]byte
	c.ReadData(args[0], 0, in[:])
	res := xformBytes(in)
	c.WriteData(out, 0, res[:])
	return nil
}

func xformBytes(in [rpcBytes]byte) (out [rpcBytes]byte) {
	for i := range in {
		out[i] = in[rpcBytes-1-i] ^ 0xa5
	}
	return out
}

// rpcPair is a caller and a server client on one pool, with the call queue
// between them.
type rpcPair struct {
	pool   *shm.Pool
	cc, sc *shm.Client
	caller *rpc.Caller
	srv    *rpc.Server
}

func newRPCPair(mws ...cxl.Middleware) (*rpcPair, error) {
	pool, err := shm.NewPool(shm.Config{Geometry: rpcGeometry, Middleware: mws})
	if err != nil {
		return nil, err
	}
	p := &rpcPair{pool: pool}
	if p.cc, err = pool.Connect(); err != nil {
		return nil, err
	}
	if p.sc, err = pool.Connect(); err != nil {
		return nil, err
	}
	if p.caller, err = rpc.NewCaller(p.cc, p.sc.ID(), 8); err != nil {
		return nil, err
	}
	if p.srv, err = rpc.NewServer(p.sc, p.cc.ID()); err != nil {
		return nil, err
	}
	p.srv.Register(fnXform, xform)
	return p, nil
}

// serverLoop polls srv on its client c until stop (clean exit) or crash
// (the goroutine just ends: the slot stays alive with a frozen heartbeat,
// what a killed process leaves behind). It heartbeats every heartbeatEvery.
type serverLoop struct {
	stop, crash atomic.Bool
	done        chan error
}

func startServer(srv *rpc.Server, c *shm.Client) *serverLoop {
	s := &serverLoop{done: make(chan error, 1)}
	go func() {
		last := time.Now()
		for !s.stop.Load() {
			if s.crash.Load() {
				s.done <- nil
				return
			}
			served, err := srv.Poll()
			if err != nil {
				s.done <- err
				return
			}
			if !served {
				runtime.Gosched()
			}
			if now := time.Now(); now.Sub(last) >= heartbeatEvery {
				c.Heartbeat()
				last = now
			}
		}
		c.FlushMetrics()
		s.done <- nil
	}()
	return s
}

func (s *serverLoop) halt() error {
	s.stop.Store(true)
	return <-s.done
}

// rpcRun is one pass of the rpc-pair workload.
type rpcRun struct {
	setup  []float64
	window time.Duration
	calls  int

	starts                   []int64 // when each call started, ns since the epoch
	arg, call, release, late []int64 // ns per call inside the window

	attempted, failed int
	firstErr          error
	ep                episode
	ticks             []span
	monitor           span              // when the monitor ran, ns since the epoch
	counter           map[string]uint64 // pool counter deltas over the call window
	monCounter        map[string]uint64 // and over the monitor's run
	fsckClean         bool
	fsckIssues        int
	replay            *rpcReplay
	stolen            float64 // machine CPU share stolen during the window
}

// heartbeater heartbeats a client at most every heartbeatEvery from the
// goroutine that owns it.
type heartbeater struct {
	c    *shm.Client
	last time.Time
}

func (h *heartbeater) beat() {
	if now := time.Now(); now.Sub(h.last) >= heartbeatEvery {
		h.c.Heartbeat()
		h.last = now
	}
}

// runRPC sets a pair up reps times (keeping the last), runs a closed loop
// of Arg → Call → release for seconds, then crashes the server with a
// recovery monitor watching and fails calls over to a standby server.
func runRPC(seed int64, seconds float64, traced bool, reps int) (*rpcRun, error) {
	r := &rpcRun{window: time.Duration(seconds * float64(time.Second))}
	var p *rpcPair
	var sl *serverLoop
	for i := 0; i < reps; i++ {
		// Collect the previous set-up's pool and hand the heap back to the
		// OS outside the timing, so every set-up maps and faults its pool's
		// memory afresh, as the first one in a process does. Reusing the
		// pages the runtime happened to keep spread the median by half
		// between runs.
		debug.FreeOSMemory()
		t0 := time.Now()
		pp, err := newRPCPair()
		if err != nil {
			return nil, err
		}
		s := startServer(pp.srv, pp.sc)
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i < reps-1 {
			s.halt()
			pp.pool.CloseDevice()
		} else {
			p, sl = pp, s
		}
	}
	defer p.pool.CloseDevice()

	before := p.pool.Obs().Snapshot().Counters
	hb := &heartbeater{c: p.cc, last: time.Now()}
	rng := rand.New(rand.NewSource(seed))
	var in [rpcBytes]byte
	epoch := time.Now()
	cpu0 := markCPU()
	since := func() int64 { return time.Since(epoch).Nanoseconds() }
	end := r.window.Nanoseconds()
	prevEnd := since()
	for prevEnd < end {
		rng.Read(in[:])
		t0 := since()
		err := r.oneCall(p.cc, p.caller, in, traced, t0, prevEnd, since)
		r.attempted++
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
		hb.beat()
		prevEnd = since()
	}
	r.stolen = cpu0.stolenSince()
	p.cc.FlushMetrics()
	// The server publishes its counters on every heartbeat; wait one out.
	time.Sleep(2 * heartbeatEvery)
	r.counter = counterDelta(before, p.pool.Obs().Snapshot().Counters)

	if err := r.failover(p, sl, hb, epoch); err != nil {
		return nil, err
	}
	res := check.Validate(p.pool)
	r.fsckClean, r.fsckIssues = res.Clean(), len(res.Issues)
	if traced {
		var err error
		if r.replay, err = replayRPC(seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// oneCall runs and checks one call, recording its spans.
func (r *rpcRun) oneCall(cc *shm.Client, caller *rpc.Caller, in [rpcBytes]byte, traced bool, t0, prevEnd int64, since func() int64) error {
	argRoot, arg, err := caller.Arg(in[:])
	if err != nil {
		return fmt.Errorf("arg: %w", err)
	}
	t1 := since()
	outRoot, out, err := caller.Call(fnXform, []layout.Addr{arg}, rpcBytes)
	t2 := since()
	if err != nil {
		cc.ReleaseRoot(argRoot)
		return fmt.Errorf("call: %w", err)
	}
	var got [rpcBytes]byte
	cc.ReadData(out, 0, got[:])
	t3 := since()
	_, err1 := cc.ReleaseRoot(outRoot)
	_, err2 := cc.ReleaseRoot(argRoot)
	t4 := since()
	r.calls++
	r.arg = append(r.arg, t1-t0)
	r.call = append(r.call, t2-t1)
	r.late = append(r.late, t0-prevEnd)
	r.starts = append(r.starts, t0)
	if traced {
		r.release = append(r.release, (t4-t3)/2)
	}
	switch {
	case got != xformBytes(in):
		return fmt.Errorf("call returned wrong output")
	case err1 != nil:
		return fmt.Errorf("release output: %w", err1)
	case err2 != nil:
		return fmt.Errorf("release argument: %w", err2)
	}
	return nil
}

// failover starts a recovery monitor and a standby server, crashes the
// serving client right before a monitor tick, switches the caller to the
// standby once the monitor has fenced the crashed one, waits for its
// recovery, and then shuts everything down cleanly.
func (r *rpcRun) failover(p *rpcPair, sl *serverLoop, hb *heartbeater, epoch time.Time) error {
	svc, err := recovery.NewServiceWorkers(p.pool, 1)
	if err != nil {
		return err
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{
		Interval: monitorInterval, Threshold: monitorThreshold,
	})
	sc2, err := p.pool.Connect()
	if err != nil {
		return err
	}
	caller2, err := rpc.NewCaller(p.cc, sc2.ID(), 8)
	if err != nil {
		return err
	}
	srv2, err := rpc.NewServer(sc2, p.cc.ID())
	if err != nil {
		return err
	}
	srv2.Register(fnXform, xform)
	sl2 := startServer(srv2, sc2)

	monStart := time.Since(epoch).Nanoseconds()
	before := p.pool.Obs().Snapshot().Counters
	tl := startTickLoop(mon, epoch)
	for i := 0; i < 3; i++ { // let the monitor seed every heartbeat baseline
		hb.beat()
		tl.atNextTick(func() {})
	}
	var killAt time.Time
	tl.atNextTick(func() {
		sl.crash.Store(true)
		killAt = time.Now()
		<-sl.done
	})
	if _, err := awaitTimeline(p.pool, p.sc.ID(), killAt, hb.beat, false); err != nil {
		tl.halt()
		return err
	}
	var in [rpcBytes]byte
	in[0] = 1
	if err := r.oneCall(p.cc, caller2, in, false, 0, 0, func() int64 { return 0 }); err != nil {
		tl.halt()
		return fmt.Errorf("call through the standby: %w", err)
	}
	r.calls-- // the failover call is not part of the window
	r.starts, r.arg, r.call, r.late = r.starts[:r.calls], r.arg[:r.calls], r.call[:r.calls], r.late[:r.calls]
	r.ep.Disruption = time.Since(killAt)
	timeline, err := awaitTimeline(p.pool, p.sc.ID(), killAt, hb.beat, true)
	tl.halt()
	if err != nil {
		return err
	}
	r.monitor = span{monStart, time.Since(epoch).Nanoseconds()}
	r.monCounter = counterDelta(before, p.pool.Obs().Snapshot().Counters)
	r.ticks = tl.spans()
	r.ep.times(timeline, killAt)

	if err := sl2.halt(); err != nil {
		return err
	}
	for _, c := range []interface{ Close() error }{srv2, sc2, caller2, p.caller} {
		if err := c.Close(); err != nil {
			return err
		}
	}
	if err := p.cc.Close(); err != nil {
		return err
	}
	for _, cid := range []int{sc2.ID(), p.cc.ID()} {
		if _, err := svc.RecoverClient(cid); err != nil {
			return fmt.Errorf("recover cid %d: %w", cid, err)
		}
	}
	return nil
}
