package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/shm"
)

// Client-scaling benchmark (the Fig. 6 axis the fast-path benchmark does not
// cover): how attachment and per-operation cost behave as the number of
// attached clients grows toward the slot-lease design target of 256. The
// load-bearing claim is that attach cost is independent of both the slot
// table size M and the number of already-attached clients N — the free-slot
// bitmap makes the claim O(1) device CASes and the era row is seeded lazily
// instead of with M eager loads.
//
// Like the fast-path rows, the gateable columns are deterministic device
// access counts; wall-clock throughput per client is recorded for humans but
// never gated. It is timed on the counting stack (cxl.WithCounting), so it
// overstates absolute cost and swings about 2x from run to run.

// ScaleRow is one client-count point of the scaling curve.
type ScaleRow struct {
	Clients int `json:"clients"`
	// ConnectCAS / ConnectAccesses are the mean device CAS attempts and total
	// accesses per Connect over all N attachments.
	ConnectCAS      float64 `json:"connect_cas_per_op"`
	ConnectAccesses float64 `json:"connect_accesses_per_op"`
	// LastConnectCAS / LastConnectAccesses isolate the N-th attachment — the
	// point where a scan-based claim or an eager era-row load would show its
	// O(N) or O(M) growth.
	LastConnectCAS      float64 `json:"last_connect_cas"`
	LastConnectAccesses float64 `json:"last_connect_accesses"`
	// AllocAccesses / FreeAccesses are device accesses per Malloc/ReleaseRoot
	// with all N clients attached and active.
	AllocAccesses float64 `json:"alloc_accesses_per_op"`
	FreeAccesses  float64 `json:"free_accesses_per_op"`
	// OpsPerSecPerClient is wall-clock alloc+free throughput divided by N,
	// timed on the counting stack: machine-local and informational, never
	// gated.
	OpsPerSecPerClient float64 `json:"ops_per_sec_per_client"`
}

// ScaleRecovery summarizes the concurrent-recovery half of the benchmark:
// k independent dead clients recovered by a serial service versus a pooled
// one. Wall-clock, machine-local — the pinned regression test for the
// speedup lives in internal/recovery.
type ScaleRecovery struct {
	DeadClients  int     `json:"dead_clients"`
	Workers      int     `json:"workers"`
	SerialNs     float64 `json:"serial_ns"`
	ConcurrentNs float64 `json:"concurrent_ns"`
	Speedup      float64 `json:"speedup"`
}

// ScaleClientCounts is the committed curve's x axis.
var ScaleClientCounts = []int{1, 4, 16, 64, 128, 256}

// scaleGeometry holds every curve point: one slot table sized past the
// 256-client target so the M-dependence of attachment (if any) is visible at
// every N.
func scaleGeometry() layout.GeometryConfig {
	return layout.GeometryConfig{
		MaxClients:   260,
		NumSegments:  600,
		SegmentWords: 1 << 13,
		PageWords:    1 << 9,
		MaxQueues:    8,
	}
}

// ClientScaling measures one row per entry of counts (nil = the committed
// ScaleClientCounts curve).
func ClientScaling(scale Scale, counts []int) ([]ScaleRow, error) {
	if counts == nil {
		counts = ScaleClientCounts
	}
	var rows []ScaleRow
	for _, n := range counts {
		row, err := clientScalingPoint(scale, n)
		if err != nil {
			return nil, fmt.Errorf("scale point %d clients: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func clientScalingPoint(scale Scale, n int) (ScaleRow, error) {
	row := ScaleRow{Clients: n}
	ctr := &cxl.AccessCounter{}
	p, err := shm.NewPool(shm.Config{
		Geometry:   scaleGeometry(),
		Middleware: []cxl.Middleware{cxl.WithCounting(ctr)},
	})
	if err != nil {
		return row, err
	}
	defer p.CloseDevice()

	clients := make([]*shm.Client, 0, n)
	ctr.Reset()
	for i := 0; i < n-1; i++ {
		c, err := p.Connect()
		if err != nil {
			return row, err
		}
		clients = append(clients, c)
	}
	bulk := ctr.Snapshot()
	ctr.Reset()
	last, err := p.Connect()
	if err != nil {
		return row, err
	}
	clients = append(clients, last)
	lastStats := ctr.Snapshot()

	row.LastConnectCAS = float64(lastStats.CASes)
	row.LastConnectAccesses = float64(lastStats.Loads + lastStats.Stores + lastStats.CASes)
	total := cxl.Stats{
		Loads:  bulk.Loads + lastStats.Loads,
		Stores: bulk.Stores + lastStats.Stores,
		CASes:  bulk.CASes + lastStats.CASes,
	}
	row.ConnectCAS = float64(total.CASes) / float64(n)
	row.ConnectAccesses = float64(total.Loads+total.Stores+total.CASes) / float64(n)

	// Steady-state operation cost with all N clients attached: every client
	// allocates and then frees its objects, round-robin so the device sees
	// interleaved owners. Ops per client shrink as N grows to keep points
	// comparably sized; the per-op averages are what the row records.
	opsPer := scale.N(2048) / n
	if opsPer < 4 {
		opsPer = 4
	}
	roots := make([][]layout.Addr, n)
	ctr.Reset()
	t0 := time.Now()
	for i := 0; i < opsPer; i++ {
		for ci, c := range clients {
			r, _, err := c.Malloc(64, 0)
			if err != nil {
				return row, err
			}
			roots[ci] = append(roots[ci], r)
		}
	}
	s := ctr.Snapshot()
	row.AllocAccesses = float64(s.Loads+s.Stores+s.CASes) / float64(n*opsPer)
	ctr.Reset()
	for ci, c := range clients {
		for _, r := range roots[ci] {
			if _, err := c.ReleaseRoot(r); err != nil {
				return row, err
			}
		}
	}
	el := time.Since(t0)
	s = ctr.Snapshot()
	row.FreeAccesses = float64(s.Loads+s.Stores+s.CASes) / float64(n*opsPer)
	row.OpsPerSecPerClient = rate(2*n*opsPer, el) / float64(n)
	return row, nil
}

// scaleRecoveryVictims is k: the independent dead clients the comparison
// recovers, matching the pooled service's worker count.
const scaleRecoveryVictims = 8

// ConcurrentRecovery times the recovery of k independent dead clients twice
// — through a single-executor service and through a service with k workers —
// on identically prepared pools. The latency middleware charges a large
// sleep-based cost per modelled cache miss, making recovery latency-bound
// the way it is on real far memory: sleeps overlap across worker
// goroutines even on a single-core host, so the measured speedup reflects
// the service's concurrency structure rather than local CPU count.
func ConcurrentRecovery(scale Scale) (*ScaleRecovery, error) {
	objs := scale.N(150)
	serial, err := timedRecovery(objs, 1)
	if err != nil {
		return nil, err
	}
	conc, err := timedRecovery(objs, scaleRecoveryVictims)
	if err != nil {
		return nil, err
	}
	rec := &ScaleRecovery{
		DeadClients:  scaleRecoveryVictims,
		Workers:      scaleRecoveryVictims,
		SerialNs:     float64(serial.Nanoseconds()),
		ConcurrentNs: float64(conc.Nanoseconds()),
	}
	if conc > 0 {
		rec.Speedup = float64(serial) / float64(conc)
	}
	return rec, nil
}

// timedRecovery builds a pool with k crashed clients (each owning objs
// objects in its own segments) and times recovering all of them through a
// service with the given worker count.
func timedRecovery(objs, workers int) (time.Duration, error) {
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   24,
			NumSegments:  64,
			SegmentWords: 1 << 13,
			PageWords:    1 << 9,
			MaxQueues:    8,
		},
		Middleware: []cxl.Middleware{cxl.WithLatency(cxl.Latency{MissNS: 40_000, Sleep: true})},
	})
	if err != nil {
		return 0, err
	}
	defer p.CloseDevice()

	victims := make([]*shm.Client, scaleRecoveryVictims)
	for i := range victims {
		if victims[i], err = p.Connect(); err != nil {
			return 0, err
		}
		for j := 0; j < objs; j++ {
			if _, _, err := victims[i].Malloc(48, 0); err != nil {
				return 0, err
			}
		}
	}
	for _, v := range victims {
		if err := v.Crash(); err != nil {
			return 0, err
		}
	}
	svc, err := recovery.NewServiceWorkers(p, workers)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(victims))
	for i, v := range victims {
		wg.Add(1)
		go func(i, cid int) {
			defer wg.Done()
			_, errs[i] = svc.RecoverClient(cid)
		}(i, v.ID())
	}
	wg.Wait()
	el := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return el, nil
}

// PrintScale renders the scaling curve and recovery comparison.
func PrintScale(w io.Writer, rows []ScaleRow, rec *ScaleRecovery) {
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			fmt.Sprint(r.Clients), f2(r.ConnectCAS), f2(r.ConnectAccesses),
			f2(r.LastConnectCAS), f2(r.LastConnectAccesses),
			f2(r.AllocAccesses), f2(r.FreeAccesses), f1(r.OpsPerSecPerClient),
		}
	}
	PrintTable(w, []string{
		"Clients", "conCAS/op", "conAcc/op", "lastCAS", "lastAcc",
		"allocAcc/op", "freeAcc/op", "ops/s/client",
	}, table)
	if rec != nil {
		fmt.Fprintf(w, "\nrecovery of %d dead clients: serial %.2fms, %d workers %.2fms (%.2fx)\n",
			rec.DeadClients, rec.SerialNs/1e6, rec.Workers, rec.ConcurrentNs/1e6, rec.Speedup)
	}
}

// scaleDoc is the BENCH_scale.json document shape.
type scaleDoc struct {
	Benchmark  string          `json:"benchmark"`
	Provenance *obs.Provenance `json:"provenance,omitempty"`
	Rows       []ScaleRow      `json:"rows"`
	Recovery   *ScaleRecovery  `json:"recovery,omitempty"`
}

// MarshalScale renders the BENCH_scale.json document. prov and rec may be
// nil (tests).
func MarshalScale(rows []ScaleRow, rec *ScaleRecovery, prov *obs.Provenance) ([]byte, error) {
	return json.MarshalIndent(scaleDoc{
		Benchmark: "scale", Provenance: prov, Rows: rows, Recovery: rec,
	}, "", "  ")
}

// UnmarshalScale parses a BENCH_scale.json document.
func UnmarshalScale(data []byte) ([]ScaleRow, *ScaleRecovery, error) {
	var doc scaleDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, err
	}
	if doc.Benchmark != "scale" {
		return nil, nil, fmt.Errorf("not a scale document (benchmark %q)", doc.Benchmark)
	}
	return doc.Rows, doc.Recovery, nil
}

// CompareScale checks a fresh curve against the committed one, returning one
// message per regression: a client count whose per-client deterministic
// device cost (connect, alloc, or free accesses — throughput per client in
// the device-cycle model) grew more than tolerance over the committed value,
// or a missing point. Wall-clock columns are never compared.
func CompareScale(committed, fresh []ScaleRow, tolerance float64) []string {
	byN := make(map[int]ScaleRow, len(fresh))
	for _, r := range fresh {
		byN[r.Clients] = r
	}
	var regressions []string
	check := func(n int, col string, got, want float64) {
		if limit := want * (1 + tolerance); got > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%d clients: %s %.2f, committed %.2f (+%.0f%% > %.0f%% tolerance)",
				n, col, got, want, (got/want-1)*100, tolerance*100))
		}
	}
	for _, want := range committed {
		got, ok := byN[want.Clients]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%d clients: missing from fresh run", want.Clients))
			continue
		}
		check(want.Clients, "connect accesses/op", got.ConnectAccesses, want.ConnectAccesses)
		check(want.Clients, "connect CAS/op", got.ConnectCAS, want.ConnectCAS)
		check(want.Clients, "last-connect accesses", got.LastConnectAccesses, want.LastConnectAccesses)
		check(want.Clients, "alloc accesses/op", got.AllocAccesses, want.AllocAccesses)
		check(want.Clients, "free accesses/op", got.FreeAccesses, want.FreeAccesses)
	}
	return regressions
}
