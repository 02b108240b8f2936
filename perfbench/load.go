package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/kv"
	"repro/internal/serving"
)

// conns is the number of load connections (goroutines) of every serving
// workload: the load is sized for a 2-vCPU machine.
const conns = 2

// pingEvery: in a traced run, each connection sends one netrpc Ping to its
// current target worker after every pingEvery-th operation.
const pingEvery = 16

var errBadRead = errors.New("read returned a value no acknowledged or in-flight write stored")

// opRec is one operation of the measured window, in ns since the epoch:
// when it was due, when the generator issued it, and when it completed.
// Latency is end-due; for a closed loop due equals issue.
type opRec struct {
	due, issue, end int64
	kind            opKind
}

// connOut is what one load connection measured.
type connOut struct {
	recs      []opRec
	late      []int64 // issue - due (open loop) or issue - previous end (closed loop)
	pings     []int64
	attempted int
}

// loadGen drives a serving tier from conns goroutines. It routes each
// write to its partition's current writer and each read to the partition's
// worker, rerouting reads to a survivor and holding writes for the
// takeover once the orchestrator has killed a worker. It keeps, per key,
// the last issued and last acknowledged version, which every read is
// checked against.
type loadGen struct {
	sh      *shape
	seed    int64
	buckets int
	traced  bool
	epoch   time.Time

	// conns holds each load connection's dial to every worker; workers are
	// added (addWorker) only while no load runs.
	conns  [][]*serving.Conn // [connection][worker]
	route  []atomic.Int32    // partition → worker serving its writes
	killed []atomic.Bool     // worker → killed by the orchestrator

	acked, issued []atomic.Uint32 // per key

	windowEnd int64        // ops due at or after this are tail ops
	stopAt    atomic.Int64 // no op due after this is issued

	rerouted, stalled, failed, badReads atomic.Uint64

	// doOp performs one operation and returns the worker that served it
	// (lg.do; tests substitute it to inject stalls).
	doOp func(g int, op genOp, buf []byte) (int, error)

	errMu    sync.Mutex
	firstErr error
}

func newLoadGen(t *tier, seed int64, traced bool) (*loadGen, error) {
	sh := t.sh
	lg := &loadGen{
		sh: sh, seed: seed, buckets: bucketsFor(sh.keys), traced: traced,
		route:  make([]atomic.Int32, sh.workers),
		killed: make([]atomic.Bool, sh.workers+quietKills),
		acked:  make([]atomic.Uint32, sh.keys),
		issued: make([]atomic.Uint32, sh.keys),
	}
	lg.doOp = lg.do
	for p := range lg.route {
		lg.route[p].Store(int32(p))
	}
	lg.conns = make([][]*serving.Conn, conns)
	for _, p := range t.procs {
		if err := lg.addWorker(p); err != nil {
			lg.close()
			return nil, err
		}
	}
	return lg, nil
}

// addWorker dials worker p from every load connection. Call it only while
// no load runs.
func (lg *loadGen) addWorker(p *workerProc) error {
	for g := range lg.conns {
		c, err := serving.DialWorker(p.addr, netCfg)
		if err != nil {
			return fmt.Errorf("dial worker cid %d: %w", p.cid, err)
		}
		lg.conns[g] = append(lg.conns[g], c)
	}
	return nil
}

func (lg *loadGen) close() {
	for _, row := range lg.conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
}

func (lg *loadGen) since() int64 { return time.Since(lg.epoch).Nanoseconds() }

// run starts the connections and returns once every one has stopped.
func (lg *loadGen) run(openRate float64) []connOut {
	outs := make([]connOut, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = lg.runConn(g, openRate)
		}(g)
	}
	wg.Wait()
	return outs
}

func (lg *loadGen) runConn(g int, openRate float64) connOut {
	var out connOut
	gen, err := newOpGen(lg.sh, lg.seed, g)
	if err != nil {
		lg.noteErr(err)
		return out
	}
	buf := make([]byte, valSize)
	prevEnd := lg.since()
	// Open loop: each connection is an independent user issuing a seeded
	// Poisson stream at openRate/conns; an op's due time is the sum of the
	// exponential gaps before it, whatever happened to the ops before it.
	arrivals := rand.New(rand.NewSource(lg.seed*7919 + int64(g) + 1))
	var next float64
	for i := 0; ; i++ {
		op := gen.next()
		var due int64
		if openRate > 0 {
			next += arrivals.ExpFloat64() / (openRate / conns) * 1e9
			due = int64(next)
			if due > lg.stopAt.Load() {
				break
			}
			if d := due - lg.since(); d > 0 {
				// A plain nanosleep: the runtime's timers round waits
				// under a millisecond up to one, which would make the
				// generator itself late by up to a period.
				ts := syscall.NsecToTimespec(d)
				syscall.Nanosleep(&ts, nil)
			}
		} else if prevEnd > lg.stopAt.Load() {
			break
		}
		issue := lg.since()
		if openRate == 0 {
			due = issue
		}
		w, err := lg.doOp(g, op, buf)
		end := lg.since()
		out.attempted++
		if err != nil {
			lg.failed.Add(1)
			lg.noteErr(err)
		}
		if due < lg.windowEnd {
			out.recs = append(out.recs, opRec{due: due, issue: issue, end: end, kind: op.kind})
			if openRate > 0 {
				out.late = append(out.late, issue-due)
			} else {
				out.late = append(out.late, issue-prevEnd)
			}
		}
		if lg.traced && i%pingEvery == 0 && !lg.killed[w].Load() {
			t0 := lg.since()
			if _, err := lg.conns[g][w].Ping(); err == nil && t0 < lg.windowEnd {
				out.pings = append(out.pings, lg.since()-t0)
			}
		}
		prevEnd = lg.since()
	}
	return out
}

func (lg *loadGen) noteErr(err error) {
	lg.errMu.Lock()
	if lg.firstErr == nil {
		lg.firstErr = err
	}
	lg.errMu.Unlock()
}

// do performs one operation and returns the worker that served it.
func (lg *loadGen) do(g int, op genOp, buf []byte) (int, error) {
	switch op.kind {
	case opPut:
		return lg.put(g, op.key, buf)
	case opScan:
		return lg.scan(g, op.key)
	}
	return lg.get(g, op.key)
}

// alive returns w, or the next worker after it that was not killed.
func (lg *loadGen) alive(w int) int {
	n := len(lg.conns[0])
	for j := 0; j < n; j++ {
		if c := (w + j) % n; !lg.killed[c].Load() {
			return c
		}
	}
	return w
}

func (lg *loadGen) partition(key uint64) int {
	return kv.Partition(key, lg.buckets, lg.sh.workers)
}

func (lg *loadGen) get(g int, key uint64) (int, error) {
	w := int(lg.route[lg.partition(key)].Load())
	for {
		if lg.killed[w].Load() {
			w = lg.alive(w)
			lg.rerouted.Add(1) // at most once: alive never returns a killed worker
		}
		lo := lg.acked[key].Load()
		val, found, err := lg.conns[g][w].Get(key)
		if err != nil {
			if lg.killed[w].Load() {
				continue
			}
			return w, fmt.Errorf("get key %d from worker %d: %w", key, w, err)
		}
		hi := lg.issued[key].Load()
		ver, ok := checkValue(val, key)
		if !found || !ok || ver < lo || ver > hi {
			lg.badReads.Add(1)
			return w, fmt.Errorf("key %d: found=%v version %d outside [%d,%d]: %w", key, found, ver, lo, hi, errBadRead)
		}
		return w, nil
	}
}

func (lg *loadGen) put(g int, key uint64, buf []byte) (int, error) {
	ver := lg.issued[key].Load() + 1
	lg.issued[key].Store(ver)
	fillValue(buf, key, ver)
	p := lg.partition(key)
	var stallStart time.Time
	for {
		w := int(lg.route[p].Load())
		if lg.killed[w].Load() {
			// The partition's writer is dead: the single-writer rule makes
			// this write wait for the takeover, not reroute.
			if stallStart.IsZero() {
				stallStart = time.Now()
				lg.stalled.Add(1)
			}
			if time.Since(stallStart) > failoverWait {
				return w, fmt.Errorf("put key %d: partition %d not taken over within %v", key, p, failoverWait)
			}
			time.Sleep(50 * time.Microsecond)
			continue
		}
		err := lg.conns[g][w].Put(key, buf)
		if err == nil {
			lg.acked[key].Store(ver)
			if w != p {
				lg.rerouted.Add(1)
			}
			return w, nil
		}
		if !lg.killed[w].Load() {
			return w, fmt.Errorf("put key %d to worker %d: %w", key, w, err)
		}
	}
}

func (lg *loadGen) scan(g int, seed uint64) (int, error) {
	span := uint64(lg.sh.scanSpan)
	w := g % lg.sh.workers
	for {
		if lg.killed[w].Load() {
			w = lg.alive(w)
			lg.rerouted.Add(1)
		}
		n, err := lg.conns[g][w].Scan(seed, span)
		if err != nil {
			if lg.killed[w].Load() {
				continue
			}
			return w, fmt.Errorf("scan on worker %d: %w", w, err)
		}
		if uint64(n) != span {
			lg.badReads.Add(1)
			return w, fmt.Errorf("scan returned %d records, want %d: %w", n, span, errBadRead)
		}
		return w, nil
	}
}
