package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/recovery"
	"repro/internal/serving"
)

// kvRun is one pass of a kv workload over a fresh serving tier.
type kvRun struct {
	sh     *shape
	setup  []float64 // seconds per set-up (preload plus spawn)
	window time.Duration
	outs   []connOut
	eps    []episode // every failure injected
	ep     episode   // their per-time medians

	attempted, failed           int
	badReads, rerouted, stalled uint64
	firstErr                    error
	verdict                     verdict

	ticks   []span            // every monitor tick of the run
	counter map[string]uint64 // pool counter deltas over the pass
	replay  *kvReplay         // traced passes only
	stolen  float64           // machine CPU share stolen during the window
}

// runKV sets the tier up reps times (keeping the last), drives the
// workload for seconds, kills one worker (inside the window or right
// after it, per the shape), and checks every output.
func runKV(sh *shape, seed int64, seconds float64, traced bool, reps int, dir, exe string) (*kvRun, error) {
	r := &kvRun{sh: sh, window: time.Duration(seconds * float64(time.Second))}
	if sh.openRate > 0 {
		// Open-loop generators pace with nanosleep, which holds a P while
		// blocked; give the rest of the process as many Ps as before.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + conns))
	}
	var t *tier
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		tt, err := newTier(dir, exe, sh, i)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i < reps-1 {
			tt.close()
		} else {
			t = tt
		}
	}
	defer t.close()

	lg, err := newLoadGen(t, seed, traced)
	if err != nil {
		return nil, err
	}
	defer lg.close()
	mon := recovery.NewMonitor(t.svc, recovery.MonitorConfig{
		Interval: monitorInterval, Threshold: monitorThreshold,
	})
	lg.epoch = time.Now()
	lg.windowEnd = r.window.Nanoseconds()
	lg.stopAt.Store(lg.windowEnd)
	tl := startTickLoop(mon, lg.epoch)
	cpu0 := markCPU()
	before := t.pool.Obs().Snapshot().Counters
	done := make(chan []connOut, 1)
	go func() { done <- lg.run(sh.openRate) }()

	if sh.killFrac < 1 {
		// The failure lands mid-window, under the open-loop load.
		time.Sleep(time.Duration(float64(r.window)*sh.killFrac) - time.Since(lg.epoch))
		var ep episode
		if ep, err = killEpisode(t, lg, tl, 1, 2%sh.workers); err != nil {
			lg.stopAt.Store(0)
		}
		r.eps = append(r.eps, ep)
		r.outs = <-done
		r.stolen = cpu0.stolenSince()
	} else {
		// The failures come after the window, on a quiet tier; then a short
		// burst of load checks reads and writes through the survivors.
		r.outs = <-done
		r.stolen = cpu0.stolenSince()
		if err = r.quietEpisodes(t, lg, tl, exe); err == nil {
			lg.stopAt.Store(lg.since() + tailBurst.Nanoseconds())
			r.outs = append(r.outs, lg.run(sh.openRate)...)
		}
	}
	after := t.pool.Obs().Snapshot().Counters
	tl.halt()
	if err != nil {
		return nil, err
	}
	r.ep = medianEpisode(r.eps)
	r.ticks = tl.spans()
	r.counter = counterDelta(before, after)
	for _, o := range r.outs {
		r.attempted += o.attempted
	}
	r.failed = int(lg.failed.Load())
	r.badReads, r.rerouted, r.stalled = lg.badReads.Load(), lg.rerouted.Load(), lg.stalled.Load()
	r.firstErr = lg.firstErr

	if r.verdict, err = t.finish(lg); err != nil {
		return nil, err
	}
	if traced {
		if r.replay, err = replayKV(sh, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tailBurst is how long load runs through the survivors after failures
// injected past the window.
const tailBurst = 200 * time.Millisecond

// quietEpisodes are the failures of a tier whose window is over: one
// failure is a single sample of a time the monitor's pace sets, so the
// median of quietKills is reported. Each round kills the worker that owns
// partition 1, the newest worker takes over all it owned, and a fresh
// worker (owning nothing) is started to take over in the next round.
func (r *kvRun) quietEpisodes(t *tier, lg *loadGen, tl *tickLoop, exe string) error {
	survivor := 0
	for e := 0; e < quietKills; e++ {
		ep, err := killEpisode(t, lg, tl, int(lg.route[1].Load()), survivor)
		if err != nil {
			return err
		}
		r.eps = append(r.eps, ep)
		if e == quietKills-1 {
			return nil
		}
		p, err := spawnWorker(exe, t.path, -1)
		if err != nil {
			return err
		}
		t.procs = append(t.procs, p)
		if err := lg.addWorker(p); err != nil {
			return err
		}
		survivor = len(t.procs) - 1
	}
	return nil
}

// quietKills is how many failures a quiet tier takes after its window.
const quietKills = 7

// killEpisode kills the victim worker right before a monitor tick, waits
// for the monitor to fence and recover it, has the survivor take over every
// partition the victim owned (§6.4 metadata-only failover), and re-routes
// writes.
func killEpisode(t *tier, lg *loadGen, tl *tickLoop, victim, survivor int) (episode, error) {
	var ep episode
	ctl, err := serving.DialWorker(t.procs[survivor].addr, netCfg)
	if err != nil {
		return ep, err
	}
	defer ctl.Close()
	var killAt time.Time
	tl.atNextTick(func() {
		lg.killed[victim].Store(true)
		killAt = time.Now()
		t.procs[victim].kill()
	})
	timeline, err := awaitTimeline(t.pool, t.procs[victim].cid, killAt, nil, true)
	if err != nil {
		return ep, err
	}
	t0 := time.Now()
	for p := range lg.route {
		if int(lg.route[p].Load()) != victim {
			continue
		}
		if err := ctl.Takeover(p); err != nil {
			return ep, fmt.Errorf("takeover of partition %d: %w", p, err)
		}
		lg.route[p].Store(int32(survivor))
	}
	ep.Takeover = time.Since(t0)
	ep.Disruption = time.Since(killAt)
	ep.times(timeline, killAt)
	return ep, nil
}

// medianEpisode takes each time's median over the episodes.
func medianEpisode(eps []episode) episode {
	field := func(f func(episode) time.Duration) time.Duration {
		var v []float64
		for _, ep := range eps {
			v = append(v, float64(f(ep)))
		}
		return time.Duration(median(v))
	}
	return episode{
		Detect:     field(func(e episode) time.Duration { return e.Detect }),
		Repair:     field(func(e episode) time.Duration { return e.Repair }),
		Recovery:   field(func(e episode) time.Duration { return e.Recovery }),
		Takeover:   field(func(e episode) time.Duration { return e.Takeover }),
		Disruption: field(func(e episode) time.Duration { return e.Disruption }),
	}
}

func counterDelta(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// samples are one op kind's window samples: when each op was due, and its
// latency (end - due).
type samples struct{ due, lat []int64 }

func (r *kvRun) latencies() map[opKind]*samples {
	out := map[opKind]*samples{opGet: {}, opPut: {}, opScan: {}}
	for _, o := range r.outs {
		for _, rec := range o.recs {
			s := out[rec.kind]
			s.due = append(s.due, rec.due)
			s.lat = append(s.lat, rec.end-rec.due)
		}
	}
	return out
}

// completions lists when every window op completed.
func (r *kvRun) completions() []int64 {
	var d []int64
	for _, o := range r.outs {
		for _, rec := range o.recs {
			d = append(d, rec.end)
		}
	}
	return d
}

// windowOps counts the operations due inside the window.
func (r *kvRun) windowOps() int { return len(r.completions()) }

// sloMisses counts window operations that finished more than sloLimit
// after they were due.
func (r *kvRun) sloMisses() int {
	n := 0
	for _, o := range r.outs {
		for _, rec := range o.recs {
			if rec.end-rec.due > sloLimit.Nanoseconds() {
				n++
			}
		}
	}
	return n
}

// sloLimit is the latency limit of the open-loop SLO.
const sloLimit = 10 * time.Millisecond
