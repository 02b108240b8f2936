package recovery

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
)

// Monitor is the standalone failure detector (paper §3.2): it watches every
// client's heartbeat counter and, when one stalls, fences the client and
// runs recovery asynchronously — other clients never block on this. It also
// periodically rescans abandoned and POTENTIAL_LEAKING segments, reconciles
// the free-slot bitmap, and sweeps the queue registry.
//
// Heartbeat scanning is sharded: the device reads (status + beat per slot)
// run lock-free, split across goroutines for pools past 64 slots, and only
// the bookkeeping runs under the monitor lock. Recovery dispatch follows
// the service's executor pool: with one executor (the default) recoveries
// run inline on the monitor goroutine, exactly like the original shared
// goroutine; with more, each dead client is handed to its own goroutine
// (deduplicated while in flight) and up to Service.Workers() independent
// recoveries proceed concurrently. Dead-owner segment scans stay race-free
// either way — every one goes through the service's per-segment mutex (see
// internal/shm/scan.go's concurrency contract).
type Monitor struct {
	svc      *Service
	interval time.Duration
	// missed heartbeats (in intervals) before a client is declared dead.
	threshold int
	// execIDs marks the service's executor slots: skipped during heartbeat
	// scanning (idle pooled executors do not beat).
	execIDs map[int]bool

	mu       sync.Mutex
	lastBeat map[int]uint64
	seen     map[int]bool // cid has had lastBeat seeded this incarnation
	misses   map[int]int
	// firstMiss records when cid's heartbeat was first observed stalled
	// (unix ns) — the detection timepoint the recovery-time SLO is measured
	// from. Cleared when the beat advances.
	firstMiss  map[int]int64
	reports    []Report
	fences     []FenceRecord
	failures   []RecoveryFailure
	recoveries []RecoveryRecord
	// deadSeen marks dead clients whose fence has already been recorded, so
	// a client stuck in ClientDead (recovery erroring) yields one FenceRecord,
	// not one per tick. Cleared when the slot re-enters ClientAlive.
	deadSeen map[int]bool
	// backoff/nextTry implement exponential retry backoff (in ticks) for
	// clients whose recovery keeps failing.
	backoff map[int]int
	nextTry map[int]uint64
	// scanBackoff/scanNextTry do the same per segment for maintenance scans
	// that panic on damaged metadata: the scan is skipped until its retry
	// tick instead of panicking the monitor every interval.
	scanBackoff map[int]int
	scanNextTry map[int]uint64
	ticks       uint64
	// inflight marks clients whose recovery has been dispatched to a worker
	// goroutine and not yet recorded (concurrent dispatch mode only), so a
	// client is never recovered by two workers at once and ticks arriving
	// mid-recovery don't pile up duplicate dispatches.
	inflight map[int]bool
	// wg tracks dispatched recovery goroutines; Stop waits on it.
	wg sync.WaitGroup

	fsckEvery int
	fsckFn    func() (bool, error)

	// recoverFn performs one recovery attempt; defaults to the service's
	// RecoverClient. Tests override it to inject persistent failures.
	recoverFn func(cid int) (Report, error)

	stop chan struct{}
	done chan struct{}
}

// RecoveryFailure records one failed monitor duty — a recovery attempt, a
// maintenance scan, or an fsck pass; the monitor retries with exponential
// backoff and keeps every error here rather than swallowing it.
type RecoveryFailure struct {
	// Op names the duty that failed: "recovery", "scan", or "fsck".
	Op     string `json:"op"`
	Client int    `json:"client,omitempty"`
	// Segment is the scanned segment for Op=="scan" (-1 otherwise).
	Segment int       `json:"segment,omitempty"`
	Time    time.Time `json:"time"`
	Err     error     `json:"-"`
	Error   string    `json:"error"`
}

// FenceRecord describes one fencing decision the monitor acted on: who was
// fenced, when, why, and — for heartbeat timeouts — how many intervals the
// client had been silent.
type FenceRecord struct {
	Client int       `json:"client"`
	Time   time.Time `json:"time"`
	Reason string    `json:"reason"`
	Misses int       `json:"misses,omitempty"`
}

// RecoveryRecord describes one completed recovery: who was recovered, when
// it finished, and the detection-to-recovered duration (the SLO; zero when
// the death carried no detection stamp to measure from).
type RecoveryRecord struct {
	Client   int           `json:"client"`
	Time     time.Time     `json:"time"`
	Duration time.Duration `json:"detect_to_recovered_ns"`
}

// MonitorConfig tunes the monitor.
type MonitorConfig struct {
	// Interval between heartbeat checks (default 10ms).
	Interval time.Duration
	// Threshold is how many consecutive unchanged heartbeats declare a
	// client dead (default 3).
	Threshold int
	// FsckEvery, when positive, runs a repairing fsck every FsckEvery ticks
	// as a monitor duty (default 0: disabled — fsck stays an operator
	// action via cxlsnap/faultsim, and write counts stay deterministic).
	FsckEvery int
	// Fsck performs one fsck pass; required when FsckEvery > 0. It returns
	// whether the pool ended clean. Injected as a function so the recovery
	// package doesn't hard-depend on the checker (callers pass a closure
	// over check.Repair).
	Fsck func() (clean bool, err error)
}

// NewMonitor creates a monitor driving the given recovery service.
func NewMonitor(svc *Service, cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	m := &Monitor{
		svc:         svc,
		interval:    cfg.Interval,
		threshold:   cfg.Threshold,
		lastBeat:    make(map[int]uint64),
		seen:        make(map[int]bool),
		misses:      make(map[int]int),
		firstMiss:   make(map[int]int64),
		deadSeen:    make(map[int]bool),
		backoff:     make(map[int]int),
		nextTry:     make(map[int]uint64),
		scanBackoff: make(map[int]int),
		scanNextTry: make(map[int]uint64),
		inflight:    make(map[int]bool),
		execIDs:     make(map[int]bool),
		fsckEvery:   cfg.FsckEvery,
		fsckFn:      cfg.Fsck,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, id := range svc.ExecutorIDs() {
		m.execIDs[id] = true
	}
	m.recoverFn = func(cid int) (Report, error) { return svc.RecoverClient(cid) }
	return m
}

// Start launches the monitor goroutine.
func (m *Monitor) Start() {
	go m.run()
}

// Stop terminates the monitor and waits for it to finish, including any
// recovery workers still in flight.
func (m *Monitor) Stop() {
	close(m.stop)
	<-m.done
	m.wg.Wait()
}

// Reports returns the recoveries performed so far.
func (m *Monitor) Reports() []Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Report, len(m.reports))
	copy(out, m.reports)
	return out
}

// Fences returns every fencing decision the monitor has acted on, oldest
// first.
func (m *Monitor) Fences() []FenceRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]FenceRecord, len(m.fences))
	copy(out, m.fences)
	return out
}

// Failures returns every failed recovery attempt so far, oldest first.
func (m *Monitor) Failures() []RecoveryFailure {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RecoveryFailure, len(m.failures))
	copy(out, m.failures)
	return out
}

// Recoveries returns every completed recovery so far, oldest first, each
// with its detection-to-recovered duration.
func (m *Monitor) Recoveries() []RecoveryRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RecoveryRecord, len(m.recoveries))
	copy(out, m.recoveries)
	return out
}

// LastRecovery returns the most recent completed recovery, and false if
// none has completed yet.
func (m *Monitor) LastRecovery() (RecoveryRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.recoveries) == 0 {
		return RecoveryRecord{}, false
	}
	return m.recoveries[len(m.recoveries)-1], true
}

// LastFence returns the most recent fence record, and false if no client has
// been fenced yet.
func (m *Monitor) LastFence() (FenceRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.fences) == 0 {
		return FenceRecord{}, false
	}
	return m.fences[len(m.fences)-1], true
}

func (m *Monitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.Tick()
		}
	}
}

// beatObs is one slot's sharded-scan observation: status word, plus the
// heartbeat counter for live slots. cid 0 marks a skipped (executor) slot.
type beatObs struct {
	cid    int
	status uint64
	beat   uint64
}

// beatShard is the slot-range size one gather goroutine covers. Pools at
// or under one shard scan inline (no goroutines — keeps small-pool ticks
// deterministic and allocation-free); larger pools fan out.
const beatShard = 64

// gatherBeats reads every slot's status (and heartbeat, for live slots)
// without holding the monitor lock, sharded across goroutines for pools
// past beatShard slots. Device words are read once per tick; processing
// happens later under the lock against this stable snapshot.
func (m *Monitor) gatherBeats() []beatObs {
	p := m.svc.pool
	geo := p.Geometry()
	dev := p.Device()
	out := make([]beatObs, geo.MaxClients+1)
	scan := func(lo, hi int) {
		for cid := lo; cid <= hi; cid++ {
			if m.execIDs[cid] {
				continue
			}
			o := beatObs{cid: cid, status: p.ClientStatus(cid)}
			if o.status == layout.ClientAlive {
				o.beat = dev.Load(geo.ClientHeartbeatAddr(cid))
			}
			out[cid] = o
		}
	}
	if geo.MaxClients <= beatShard {
		scan(1, geo.MaxClients)
		return out
	}
	var wg sync.WaitGroup
	for lo := 1; lo <= geo.MaxClients; lo += beatShard {
		hi := lo + beatShard - 1
		if hi > geo.MaxClients {
			hi = geo.MaxClients
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scan(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Tick performs one round of failure detection and background maintenance.
// Exported so tests and benchmarks can drive the monitor deterministically.
func (m *Monitor) Tick() {
	p := m.svc.pool
	geo := p.Geometry()
	beats := m.gatherBeats()

	m.mu.Lock()
	defer m.mu.Unlock()

	p.Obs().Shard(0).Inc(obs.CtrMonitorTick)
	m.ticks++

	for _, o := range beats {
		if o.cid == 0 {
			continue
		}
		cid := o.cid
		switch o.status {
		case layout.ClientAlive:
			if m.deadSeen[cid] {
				// The slot was reused by a new incarnation; forget the old
				// one's fence and backoff bookkeeping.
				delete(m.deadSeen, cid)
				delete(m.backoff, cid)
				delete(m.nextTry, cid)
			}
			beat := o.beat
			if !m.seen[cid] {
				// First observation seeds the baseline without counting a
				// miss: a fresh client whose first beat happens to equal the
				// map's zero value must not accrue toward a spurious fence.
				m.seen[cid] = true
				m.lastBeat[cid] = beat
				m.misses[cid] = 0
				break
			}
			if beat == m.lastBeat[cid] {
				m.misses[cid]++
				if m.misses[cid] == 1 {
					m.firstMiss[cid] = time.Now().UnixNano()
				}
				if m.misses[cid] >= m.threshold {
					if err := p.MarkClientDeadDetected(cid, obs.FenceHeartbeat, m.firstMiss[cid]); err == nil {
						m.fences = append(m.fences, FenceRecord{
							Client: cid,
							Time:   time.Now(),
							Reason: obs.FenceHeartbeat.String(),
							Misses: m.misses[cid],
						})
						m.deadSeen[cid] = true
						m.recoverLocked(cid)
					}
				}
			} else {
				m.lastBeat[cid] = beat
				m.misses[cid] = 0
				delete(m.firstMiss, cid)
			}
		case layout.ClientDead:
			// Fenced elsewhere (explicit kill or clean close); the monitor
			// only owes it recovery. Record that it acted on the fence once —
			// a client stuck dead because recovery keeps failing must not
			// grow a fence record per tick.
			if !m.deadSeen[cid] {
				m.deadSeen[cid] = true
				m.fences = append(m.fences, FenceRecord{
					Client: cid,
					Time:   time.Now(),
					Reason: "found-dead",
				})
			}
			if m.ticks >= m.nextTry[cid] {
				m.recoverLocked(cid)
			}
		}
	}

	// Background maintenance: abandoned / flagged segments, dead huge
	// objects, stale queue registrations. Scans are panic-guarded: a scan
	// walking corrupted metadata surfaces as a RecoveryFailure with
	// per-segment backoff instead of killing the monitor goroutine.
	for seg := 0; seg < geo.NumSegments; seg++ {
		if m.ticks < m.scanNextTry[seg] {
			continue
		}
		st := p.SegState(seg)
		switch st.State {
		case layout.SegAbandoned:
			m.scanLocked(seg)
		case layout.SegHugeHead:
			if p.ClientDeadOrRecovered(int(st.CID)) {
				m.scanLocked(seg)
			}
		}
	}
	// Reconcile the free-slot bitmap with the authoritative status words:
	// heals the crash windows of half-finished claims and releases, so a
	// few ticks after any crash the bitmap is exact again.
	p.ReconcileSlotMap()
	p.SweepQueueRegistry()
	if m.fsckEvery > 0 && m.fsckFn != nil && m.ticks%uint64(m.fsckEvery) == 0 {
		m.fsckLocked()
	}
	// Heartbeat one executor so observers see the recovery plane alive;
	// borrowed, so an in-flight recovery worker never shares the client.
	exec := m.svc.borrowExec()
	exec.Heartbeat()
	m.svc.returnExec(exec)
}

// scanLocked runs one maintenance scan, converting a panic into a typed
// failure with exponential per-segment backoff and an EvRepairFailed trace.
// The scan borrows an executor (never sharing one with a recovery worker)
// and goes through the service's per-segment mutex.
func (m *Monitor) scanLocked(seg int) {
	exec := m.svc.borrowExec()
	defer m.svc.returnExec(exec)
	defer func() {
		pan := recover()
		if pan == nil {
			delete(m.scanBackoff, seg)
			delete(m.scanNextTry, seg)
			return
		}
		m.failures = append(m.failures, RecoveryFailure{
			Op: "scan", Segment: seg, Time: time.Now(),
			Error: fmt.Sprintf("scan of segment %d panicked: %v", seg, pan),
		})
		m.svc.pool.Obs().Trace(obs.Event{
			Type: obs.EvRepairFailed, Segment: seg, A: uint64(m.scanBackoff[seg]/2 + 1),
		})
		b := m.scanBackoff[seg] * 2
		if b == 0 {
			b = 2
		}
		if b > 64 {
			b = 64
		}
		m.scanBackoff[seg] = b
		m.scanNextTry[seg] = m.ticks + uint64(b)
	}()
	m.svc.scanSegment(exec, seg)
}

// fsckLocked runs the configured fsck duty, recording a panic or a dirty
// result as a typed failure.
func (m *Monitor) fsckLocked() {
	var clean bool
	var err error
	pan := func() (pan any) {
		defer func() { pan = recover() }()
		clean, err = m.fsckFn()
		return nil
	}()
	switch {
	case pan != nil:
		err = fmt.Errorf("fsck panicked: %v", pan)
	case err == nil && !clean:
		err = fmt.Errorf("fsck left the pool dirty")
	}
	if err == nil {
		return
	}
	m.failures = append(m.failures, RecoveryFailure{
		Op: "fsck", Segment: -1, Time: time.Now(), Err: err, Error: err.Error(),
	})
	m.svc.pool.Obs().Trace(obs.Event{Type: obs.EvRepairFailed, A: 1})
}

// recoverLocked runs (or dispatches) one recovery attempt. With a single
// executor it runs inline on the caller's goroutine, preserving the
// original deterministic tick behavior. With a pooled service, the attempt
// is handed to its own goroutine — bounded by the executor pool inside
// RecoverClient, deduplicated per client while in flight — and its result
// is recorded under the monitor lock when it lands, so Recoveries(),
// Failures(), and the backoff state stay coherent either way.
func (m *Monitor) recoverLocked(cid int) {
	if m.svc.Workers() > 1 {
		if m.inflight[cid] {
			return
		}
		m.inflight[cid] = true
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			r, err := m.recoverFn(cid)
			m.mu.Lock()
			defer m.mu.Unlock()
			delete(m.inflight, cid)
			m.recordLocked(cid, r, err)
		}()
		return
	}
	r, err := m.recoverFn(cid)
	m.recordLocked(cid, r, err)
}

// recordLocked books one finished recovery attempt; callers hold m.mu.
func (m *Monitor) recordLocked(cid int, r Report, err error) {
	if err != nil {
		m.failures = append(m.failures, RecoveryFailure{
			Op: "recovery", Client: cid, Segment: -1,
			Time: time.Now(), Err: err, Error: err.Error(),
		})
		n := 0
		for _, f := range m.failures {
			if f.Client == cid {
				n++
			}
		}
		m.svc.pool.Obs().Trace(obs.Event{
			Type: obs.EvRecoveryFailed, Client: cid, A: uint64(n),
		})
		b := m.backoff[cid] * 2
		if b == 0 {
			b = 2
		}
		if b > 64 {
			b = 64
		}
		m.backoff[cid] = b
		m.nextTry[cid] = m.ticks + uint64(b)
		return
	}
	m.reports = append(m.reports, r)
	m.recoveries = append(m.recoveries, RecoveryRecord{
		Client: cid, Time: time.Now(), Duration: r.Duration,
	})
	delete(m.lastBeat, cid)
	delete(m.seen, cid)
	delete(m.misses, cid)
	delete(m.firstMiss, cid)
	delete(m.backoff, cid)
	delete(m.nextTry, cid)
}
