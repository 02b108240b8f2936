package main

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/kv"
	"repro/internal/layout"
	"repro/internal/netrpc"
	"repro/internal/recovery"
	"repro/internal/serving"
	"repro/internal/shm"
)

// Serving-tier constants, the same as the cxlkv chaos defaults.
const (
	heartbeatEvery  = 2 * time.Millisecond
	monitorInterval = 10 * time.Millisecond
	// monitorThreshold: missed intervals before a fence (~50ms of grace;
	// tighter settings falsely fence live workers on small machines).
	monitorThreshold = 5
	recoveryWorkers  = 4
	failoverWait     = 10 * time.Second
)

// netCfg bounds every frame of the serving transport.
var netCfg = netrpc.Config{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}

// bucketsFor sizes the hash index at about keys/4 (mean chain ~4), a power
// of two capped at 32Ki buckets, as the serving tier does by default.
func bucketsFor(keys int) int {
	b := keys / 4
	if b < 1024 {
		return 1024
	}
	if b > 32768 {
		return 32768
	}
	return 1 << bits.Len(uint(b-1))
}

func geometryFor(sh *shape) layout.GeometryConfig {
	return serving.SizeGeometry(serving.ChaosConfig{
		Workers: sh.workers, Keys: sh.keys, ValSize: valSize,
		Buckets: bucketsFor(sh.keys), RecoveryWorkers: recoveryWorkers,
	})
}

// preload creates the kv index at root slot 0 and stores version 0 of
// every key through client c. Partition leases are all unset at this
// point, so one loader may fill every partition.
func preload(c *shm.Client, sh *shape) (*kv.Store, error) {
	st, err := kv.Create(c, 0, bucketsFor(sh.keys), valSize, sh.workers)
	if err != nil {
		return nil, fmt.Errorf("create kv index: %w", err)
	}
	buf := make([]byte, valSize)
	for k := 0; k < sh.keys; k++ {
		fillValue(buf, uint64(k), 0)
		if err := st.Put(uint64(k), buf); err != nil {
			st.Close()
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return st, nil
}

// workerMain is the worker-process mode: attach the pool file, serve one
// partition ("-": none, a standby), announce readiness on stdout, and exit
// when asked to quit or when the parent's end of stdin closes (the parent
// died).
func workerMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("worker: want <pool file> <partition or ->")
	}
	var parts []int
	if args[1] != "-" {
		part, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("worker: bad partition %q", args[1])
		}
		parts = []int{part}
	}
	w, err := serving.StartWorkerFile(args[0], serving.WorkerConfig{
		RootSlot: 0, Partitions: parts,
		HeartbeatEvery: heartbeatEvery, Net: netCfg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("READY %s %d\n", w.Addr(), w.CID())
	parentGone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(parentGone)
	}()
	select {
	case <-w.QuitRequested():
	case <-parentGone:
	}
	return w.Stop()
}

// workerProc is one worker child process.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	addr   string
	cid    int
	exited chan struct{} // closed once the process has been waited for
}

// spawnWorker starts a worker process owning partition part (none if
// part < 0) and waits for it to report ready.
func spawnWorker(exe, path string, part int) (*workerProc, error) {
	arg := "-"
	if part >= 0 {
		arg = strconv.Itoa(part)
	}
	cmd := exec.Command(exe, "worker", path, arg)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker %d: %w", part, err)
	}
	p := &workerProc{cmd: cmd, stdin: stdin, exited: make(chan struct{})}
	sc := bufio.NewScanner(out)
	ready := sc.Scan()
	if ready {
		_, err = fmt.Sscanf(sc.Text(), "READY %s %d", &p.addr, &p.cid)
	}
	go func() {
		for sc.Scan() { // drain so the child never blocks on stdout
		}
		cmd.Wait()
		close(p.exited)
	}()
	if !ready || err != nil {
		p.kill()
		return nil, fmt.Errorf("worker %d did not report ready (%q, %v)", part, sc.Text(), err)
	}
	return p, nil
}

// kill ends the worker with SIGKILL (no goodbye, slot left alive with a
// frozen heartbeat) and waits for it.
func (p *workerProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// quit asks the worker to stop cleanly and waits for it to exit. The quit
// call's own result is not checked: the worker may close the connection
// before its reply is read, and the exit is what counts.
func (p *workerProc) quit() error {
	if conn, err := serving.DialWorker(p.addr, netCfg); err == nil {
		conn.Quit()
		conn.Close()
	}
	select {
	case <-p.exited:
		return nil
	case <-time.After(10 * time.Second):
		p.kill()
		return fmt.Errorf("worker cid %d did not exit on quit", p.cid)
	}
}

// tier is a serving deployment: an mmap pool file, its recovery service,
// and one worker process per writer partition.
type tier struct {
	sh    *shape
	path  string
	pool  *shm.Pool
	svc   *recovery.Service
	procs []*workerProc
}

// newTier creates and preloads a pool file under dir and starts the
// workers; this is the benchmark's set-up.
func newTier(dir, exe string, sh *shape, tag int) (*tier, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.pool", sh.name, os.Getpid(), tag))
	os.Remove(path)
	pool, err := shm.NewPool(shm.Config{Geometry: geometryFor(sh), File: path})
	if err != nil {
		return nil, fmt.Errorf("create pool: %w", err)
	}
	t := &tier{sh: sh, path: path, pool: pool}
	if err := t.start(exe); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tier) start(exe string) error {
	loader, err := t.pool.Connect()
	if err != nil {
		return err
	}
	st, err := preload(loader, t.sh)
	if err != nil {
		return err
	}
	st.Close()
	loader.Close()
	// The loader's slot parks dead; recover it now so the monitor only
	// ever sees worker deaths. The named root keeps the index alive.
	t.svc, err = recovery.NewServiceWorkers(t.pool, recoveryWorkers)
	if err != nil {
		return err
	}
	if _, err := t.svc.RecoverClient(loader.ID()); err != nil {
		return fmt.Errorf("recover loader: %w", err)
	}
	for i := 0; i < t.sh.workers; i++ {
		p, err := spawnWorker(exe, t.path, i)
		if err != nil {
			return err
		}
		t.procs = append(t.procs, p)
	}
	return nil
}

// close kills any worker still running and removes the pool file.
func (t *tier) close() {
	for _, p := range t.procs {
		select {
		case <-p.exited:
		default:
			p.kill()
		}
		p.stdin.Close()
	}
	t.pool.CloseDevice()
	os.Remove(t.path)
}

// verdict is the outcome of a run's output checks.
type verdict struct {
	Keys       int // keys read back
	Lost       int // acked versions missing or older in the pool
	Corrupt    int // read-back values that decode to no version of the key
	FsckClean  bool
	FsckIssues int
}

func (v verdict) ok() bool { return v.Lost == 0 && v.Corrupt == 0 && v.FsckClean }

// finish stops the surviving workers cleanly, recovers their slots, reads
// every key back through a fresh pool client, checks each against the
// versions the load generator saw acknowledged, and runs fsck.
func (t *tier) finish(lg *loadGen) (verdict, error) {
	var v verdict
	for i, p := range t.procs {
		if lg.killed[i].Load() {
			continue
		}
		if err := p.quit(); err != nil {
			return v, err
		}
		if _, err := t.svc.RecoverClient(p.cid); err != nil {
			return v, fmt.Errorf("recover worker cid %d: %w", p.cid, err)
		}
	}
	c, err := t.pool.Connect()
	if err != nil {
		return v, err
	}
	st, err := kv.Open(c, 0)
	if err != nil {
		return v, err
	}
	buf := make([]byte, valSize)
	for k := 0; k < t.sh.keys; k++ {
		key := uint64(k)
		v.Keys++
		n, err := st.Get(key, buf)
		if err != nil {
			v.Lost++
			continue
		}
		ver, ok := checkValue(buf[:n], key)
		switch {
		case !ok:
			v.Corrupt++
		case ver < lg.acked[k].Load() || ver > lg.issued[k].Load():
			v.Lost++
		}
	}
	st.Close()
	c.Close()
	if _, err := t.svc.RecoverClient(c.ID()); err != nil {
		return v, fmt.Errorf("recover read-back client: %w", err)
	}
	res := check.Validate(t.pool)
	v.FsckClean, v.FsckIssues = res.Clean(), len(res.Issues)
	return v, nil
}

// span is one timed interval, in ns since a run's epoch.
type span struct{ start, end int64 }

// tickLoop drives Monitor.Tick from the benchmark's own ticker (the loop
// Monitor.Start would run), so every tick's span is timed from outside.
type tickLoop struct {
	mon   *recovery.Monitor
	epoch time.Time
	pre   chan func() // run by the loop just before its next Tick
	stop  chan struct{}
	done  chan struct{}

	mu       sync.Mutex
	spanList []span
}

func startTickLoop(mon *recovery.Monitor, epoch time.Time) *tickLoop {
	tl := &tickLoop{mon: mon, epoch: epoch, pre: make(chan func()),
		stop: make(chan struct{}), done: make(chan struct{})}
	go tl.run()
	return tl
}

func (tl *tickLoop) run() {
	defer close(tl.done)
	tk := time.NewTicker(monitorInterval)
	defer tk.Stop()
	for {
		select {
		case <-tl.stop:
			return
		case <-tk.C:
		}
		select {
		case f := <-tl.pre:
			f()
		default:
		}
		s := time.Since(tl.epoch).Nanoseconds()
		tl.mon.Tick()
		e := time.Since(tl.epoch).Nanoseconds()
		tl.mu.Lock()
		tl.spanList = append(tl.spanList, span{s, e})
		tl.mu.Unlock()
	}
}

// atNextTick runs f on the loop right before its next Tick and returns
// once f has run. A failure injected this way starts at a fixed phase of
// the monitor's interval: the Tick that follows still sees the victim's
// last heartbeat advance, and detection counts whole intervals from there.
func (tl *tickLoop) atNextTick(f func()) {
	ran := make(chan struct{})
	tl.pre <- func() {
		f()
		close(ran)
	}
	<-ran
}

// halt stops the loop and waits for it.
func (tl *tickLoop) halt() {
	close(tl.stop)
	<-tl.done
}

// spans returns every tick span so far.
func (tl *tickLoop) spans() []span {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]span(nil), tl.spanList...)
}

// episode times one peer's death from kill to the restored service.
type episode struct {
	Detect, Repair, Recovery time.Duration // kill→fence, fence→recovered, kill→recovered
	Takeover                 time.Duration // the survivor's takeover call (kv only)
	Disruption               time.Duration // kill→writes routed to the survivor
}

// awaitTimeline polls cid's recovery timeline in the pool's telemetry
// region until it shows the fence after killAt (and, with recovered, the
// recovery that followed), calling idle between polls (a client owner
// keeps heartbeating there). The timeline is read lock-free from the pool,
// so the wait does not queue behind a long-running monitor tick the way
// Monitor.Fences and Monitor.Recoveries do; its stamps are the fence and
// the recovery the monitor performed. A recycled slot's timeline holds its
// previous death until the new one is stamped, hence the killAt checks.
func awaitTimeline(pool *shm.Pool, cid int, killAt time.Time, idle func(), recovered bool) (shm.TelemetryTimeline, error) {
	done := func(tl shm.TelemetryTimeline) bool {
		if tl.FencedNS < killAt.UnixNano() {
			return false
		}
		return !recovered || tl.RecoveredNS >= tl.FencedNS
	}
	for {
		if tl, ok := pool.Telemetry().ReadTimeline(cid); ok && done(tl) {
			return tl, nil
		}
		if time.Since(killAt) > 30*time.Second {
			return shm.TelemetryTimeline{}, fmt.Errorf("cid %d: not fenced and recovered within 30s of the kill", cid)
		}
		if idle != nil {
			idle()
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// times fills the episode's detection and repair times from a completed
// timeline.
func (ep *episode) times(tl shm.TelemetryTimeline, killAt time.Time) {
	fenceAt, recAt := time.Unix(0, tl.FencedNS), time.Unix(0, tl.RecoveredNS)
	ep.Detect, ep.Repair, ep.Recovery = fenceAt.Sub(killAt), recAt.Sub(fenceAt), recAt.Sub(killAt)
}
