package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// Single-client replays: the workload's operations run in this process by
// one client on a pool stacked on cxl.WithCounting, so each layer's time
// is measured without the wire and each op's device accesses are counted
// exactly. The counts depend only on the seed and the shape.

const (
	kvReplayOps  = 20_000
	rpcReplayOps = 5_000
	quietTicks   = 10
	extraScans   = 256
	scanRecords  = 64 // records per extra scan, as the scan workload asks for
)

// accesses is one op class's device-access totals.
type accesses struct {
	ops                  int
	loads, stores, cases uint64
}

func (a *accesses) add(from, to cxl.Stats) {
	a.ops++
	a.loads += to.Loads - from.Loads
	a.stores += to.Stores - from.Stores
	a.cases += to.CASes - from.CASes
}

func (a accesses) per(n uint64) float64 {
	if a.ops == 0 {
		return 0
	}
	return float64(n) / float64(a.ops)
}

// kvReplay is what the kv replay measured.
type kvReplay struct {
	get, update, scan, all accesses
	getNS, updateNS        []int64
	scanNS                 int64 // total over all scans
	scanRecords            int
	accessesPerTick        float64
}

func replayKV(sh *shape, seed int64) (*kvReplay, error) {
	ctr := &cxl.AccessCounter{}
	pool, err := shm.NewPool(shm.Config{Geometry: geometryFor(sh),
		Middleware: []cxl.Middleware{cxl.WithCounting(ctr)}})
	if err != nil {
		return nil, err
	}
	defer pool.CloseDevice()
	c, err := pool.Connect()
	if err != nil {
		return nil, err
	}
	st, err := preload(c, sh)
	if err != nil {
		return nil, err
	}
	gen, err := newOpGen(sh, seed, 0)
	if err != nil {
		return nil, err
	}
	r := &kvReplay{}
	vers := make([]uint32, sh.keys)
	buf := make([]byte, valSize)
	for i := 0; i < kvReplayOps; i++ {
		op := gen.next()
		s0 := ctr.Snapshot()
		t0 := time.Now()
		var err error
		switch op.kind {
		case opGet:
			var n int
			n, err = st.Get(op.key, buf)
			d := time.Since(t0).Nanoseconds()
			r.get.add(s0, ctr.Snapshot())
			r.getNS = append(r.getNS, d)
			if ver, ok := checkValue(buf[:n], op.key); err == nil && (!ok || ver != vers[op.key]) {
				err = fmt.Errorf("replay read key %d: %w", op.key, errBadRead)
			}
		case opPut:
			vers[op.key]++
			err = st.Update(op.key, func(dst []byte) error {
				fillValue(dst, op.key, vers[op.key])
				return nil
			})
			d := time.Since(t0).Nanoseconds()
			r.update.add(s0, ctr.Snapshot())
			r.updateNS = append(r.updateNS, d)
		case opScan:
			n := 0
			st.RangeBuckets(int(op.key%uint64(st.Buckets())), st.Buckets(), func(uint64, []byte) bool {
				n++
				return n < sh.scanSpan
			})
			r.scanNS += time.Since(t0).Nanoseconds()
			r.scan.add(s0, ctr.Snapshot())
			r.scanRecords += n
		}
		r.all.add(s0, ctr.Snapshot())
		if err != nil {
			return nil, err
		}
	}
	// Timed scans beyond the stream's own, so every kv workload reports a
	// scan cost for its pool.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < extraScans; i++ {
		n := 0
		t0 := time.Now()
		st.RangeBuckets(rng.Intn(st.Buckets()), st.Buckets(), func(uint64, []byte) bool {
			n++
			return n < scanRecords
		})
		r.scanNS += time.Since(t0).Nanoseconds()
		r.scanRecords += n
	}
	st.Close()
	c.Close()
	if r.accessesPerTick, err = quietTickAccesses(pool, ctr, c.ID()); err != nil {
		return nil, err
	}
	return r, nil
}

// quietTickAccesses recovers the given departed clients, then counts the
// device accesses of monitor ticks on the now quiescent pool.
func quietTickAccesses(pool *shm.Pool, ctr *cxl.AccessCounter, departed ...int) (float64, error) {
	svc, err := recovery.NewServiceWorkers(pool, 1)
	if err != nil {
		return 0, err
	}
	for _, cid := range departed {
		if _, err := svc.RecoverClient(cid); err != nil {
			return 0, fmt.Errorf("recover cid %d: %w", cid, err)
		}
	}
	mon := recovery.NewMonitor(svc, recovery.MonitorConfig{
		Interval: monitorInterval, Threshold: monitorThreshold,
	})
	for i := 0; i < 3; i++ { // settle: first ticks seed baselines
		mon.Tick()
	}
	s0 := ctr.Snapshot()
	for i := 0; i < quietTicks; i++ {
		mon.Tick()
	}
	s1 := ctr.Snapshot()
	n := (s1.Loads - s0.Loads) + (s1.Stores - s0.Stores) + (s1.CASes - s0.CASes)
	return float64(n) / quietTicks, nil
}

// rpcReplay is what the rpc replay measured: the allocator and refcount
// part of a call (Arg plus both releases) and the whole call.
type rpcReplay struct {
	shm, all        accesses
	accessesPerTick float64
}

// replayRPC steps caller and server in one goroutine — Arg, CallStart,
// server Poll, Wait, release both roots — so every call's accesses are
// exactly repeatable.
func replayRPC(seed int64) (*rpcReplay, error) {
	ctr := &cxl.AccessCounter{}
	p, err := newRPCPair(cxl.WithCounting(ctr))
	if err != nil {
		return nil, err
	}
	defer p.pool.CloseDevice()
	rng := rand.New(rand.NewSource(seed))
	r := &rpcReplay{}
	var in, got [rpcBytes]byte
	for i := 0; i < rpcReplayOps; i++ {
		rng.Read(in[:])
		s0 := ctr.Snapshot()
		argRoot, arg, err := p.caller.Arg(in[:])
		if err != nil {
			return nil, err
		}
		sArg := ctr.Snapshot()
		pend, err := p.caller.CallStart(fnXform, []layout.Addr{arg}, rpcBytes)
		if err != nil {
			return nil, err
		}
		if served, err := p.srv.Poll(); !served || err != nil {
			return nil, fmt.Errorf("replay server poll: served=%v err=%v", served, err)
		}
		outRoot, out, err := pend.Wait()
		if err != nil {
			return nil, err
		}
		p.cc.ReadData(out, 0, got[:])
		if got != xformBytes(in) {
			return nil, fmt.Errorf("replay call returned wrong output")
		}
		s1 := ctr.Snapshot()
		if _, err := p.cc.ReleaseRoot(outRoot); err != nil {
			return nil, err
		}
		if _, err := p.cc.ReleaseRoot(argRoot); err != nil {
			return nil, err
		}
		s2 := ctr.Snapshot()
		r.all.add(s0, s2)
		// The allocator/refcount share: Arg plus the two releases.
		r.shm.add(s0, cxl.Stats{
			Loads:  sArg.Loads + s2.Loads - s1.Loads,
			Stores: sArg.Stores + s2.Stores - s1.Stores,
			CASes:  sArg.CASes + s2.CASes - s1.CASes,
		})
	}
	for _, c := range []interface{ Close() error }{p.srv, p.caller, p.sc, p.cc} {
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	if r.accessesPerTick, err = quietTickAccesses(p.pool, ctr, p.sc.ID(), p.cc.ID()); err != nil {
		return nil, err
	}
	return r, nil
}
