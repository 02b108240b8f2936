package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

// Fast-path microbenchmark: wall time and device accesses per operation.
//
// The experiments above measure throughput shapes; this one measures the
// fast-path claim directly — how many device words each allocation,
// reclamation, and reference-transfer operation actually touches. On real
// CXL hardware every one of those words is a memory-bus round trip, so the
// loads/stores/CAS columns are the architecture-independent cost of an
// operation, while ns/op is the simulator-local time. ns/op is timed on the
// counting stack (cxl.WithCounting moves every access onto the interface
// path and a shared counter), so it overstates absolute cost and swings
// about 2x from run to run; it is informational and never gated.

// FastPathRow is one operation's measured per-op cost.
type FastPathRow struct {
	Op       string  `json:"op"`
	NsPerOp  float64 `json:"ns_per_op"`
	Loads    float64 `json:"device_loads_per_op"`
	Stores   float64 `json:"device_stores_per_op"`
	CASes    float64 `json:"device_cas_per_op"`
	Accesses float64 `json:"device_accesses_per_op"`
}

// fastPathBatch is the batch size used for the SendBatch/ReceiveBatch rows.
const fastPathBatch = 64

// FastPath measures the allocation and reference-transfer fast paths on a
// pool stacked on cxl.WithCounting: Malloc, ReleaseRoot (free), single Send
// and Receive+release, and their batched variants (per transferred
// reference).
func FastPath(scale Scale) ([]FastPathRow, error) {
	ctr := &cxl.AccessCounter{}
	p, err := shm.NewPool(shm.Config{
		Geometry: layout.GeometryConfig{
			MaxClients:   8,
			NumSegments:  128,
			SegmentWords: 1 << 15,
			PageWords:    1 << 11,
		},
		Middleware: []cxl.Middleware{cxl.WithCounting(ctr)},
	})
	if err != nil {
		return nil, err
	}
	c, err := p.Connect()
	if err != nil {
		return nil, err
	}

	n := scale.N(50_000)
	roots := make([]layout.Addr, 0, n)
	// Warm the page caches so the rows measure the steady-state fast path,
	// not first-touch page claiming.
	for i := 0; i < 256; i++ {
		r, _, err := c.Malloc(64, 0)
		if err != nil {
			return nil, err
		}
		roots = append(roots, r)
	}
	for _, r := range roots {
		if _, err := c.ReleaseRoot(r); err != nil {
			return nil, err
		}
	}
	roots = roots[:0]

	var rows []FastPathRow
	measure := func(op string, iters int, f func() error) error {
		ctr.Reset()
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		el := time.Since(t0)
		rows = append(rows, fastPathRow(op, iters, el, ctr.Snapshot()))
		return nil
	}

	if err := measure("malloc", n, func() error {
		for i := 0; i < n; i++ {
			r, _, err := c.Malloc(64, 0)
			if err != nil {
				return err
			}
			roots = append(roots, r)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := measure("free", n, func() error {
		for _, r := range roots {
			if _, err := c.ReleaseRoot(r); err != nil {
				return err
			}
		}
		roots = roots[:0]
		return nil
	}); err != nil {
		return nil, err
	}

	// Reference transfer: a dedicated sender/receiver pair and one shared
	// object, so the rows isolate queue costs from allocation costs (the
	// receiver's RootRef claim/release is part of Receive by design).
	snd, err := p.Connect()
	if err != nil {
		return nil, err
	}
	rcv, err := p.Connect()
	if err != nil {
		return nil, err
	}
	_, q, err := snd.CreateQueue(rcv.ID(), 256)
	if err != nil {
		return nil, err
	}
	if _, err := rcv.OpenQueue(q); err != nil {
		return nil, err
	}
	_, obj, err := snd.Malloc(64, 0)
	if err != nil {
		return nil, err
	}

	m := scale.N(50_000)
	if err := measure("send+receive+release", m, func() error {
		for i := 0; i < m; i++ {
			if err := snd.Send(q, obj); err != nil {
				return err
			}
			root, _, err := rcv.Receive(q)
			if err != nil {
				return err
			}
			if _, err := rcv.ReleaseRoot(root); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	targets := make([]layout.Addr, fastPathBatch)
	for i := range targets {
		targets[i] = obj
	}
	batches := m / fastPathBatch
	if err := measure("send+receive+release (batch)", batches*fastPathBatch, func() error {
		for i := 0; i < batches; i++ {
			sent, err := snd.SendBatch(q, targets)
			if err != nil {
				return err
			}
			if sent != fastPathBatch {
				return fmt.Errorf("short batch send: %d", sent)
			}
			rs, _, err := rcv.ReceiveBatch(q, fastPathBatch)
			if err != nil {
				return err
			}
			for _, root := range rs {
				if _, err := rcv.ReleaseRoot(root); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

func fastPathRow(op string, iters int, el time.Duration, s cxl.Stats) FastPathRow {
	n := float64(iters)
	return FastPathRow{
		Op:       op,
		NsPerOp:  float64(el.Nanoseconds()) / n,
		Loads:    float64(s.Loads) / n,
		Stores:   float64(s.Stores) / n,
		CASes:    float64(s.CASes) / n,
		Accesses: float64(s.Loads+s.Stores+s.CASes) / n,
	}
}

// PrintFastPath renders the fast-path rows.
func PrintFastPath(w io.Writer, rows []FastPathRow) {
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Op, f1(r.NsPerOp), f2(r.Loads), f2(r.Stores), f2(r.CASes), f2(r.Accesses),
		}
	}
	PrintTable(w, []string{"Op", "ns/op", "loads/op", "stores/op", "CAS/op", "accesses/op"}, table)
}

// fastPathDoc is the BENCH_fastpath.json document shape. Provenance says
// what build and environment produced the committed numbers — without it a
// stale BENCH_fastpath.json is unfalsifiable.
type fastPathDoc struct {
	Benchmark  string          `json:"benchmark"`
	Provenance *obs.Provenance `json:"provenance,omitempty"`
	Rows       []FastPathRow   `json:"rows"`
}

// MarshalFastPath renders the rows as the BENCH_fastpath.json document.
// prov may be nil (tests).
func MarshalFastPath(rows []FastPathRow, prov *obs.Provenance) ([]byte, error) {
	return json.MarshalIndent(fastPathDoc{
		Benchmark: "fastpath", Provenance: prov, Rows: rows,
	}, "", "  ")
}

// UnmarshalFastPath parses a BENCH_fastpath.json document.
func UnmarshalFastPath(data []byte) ([]FastPathRow, error) {
	var doc fastPathDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if doc.Benchmark != "fastpath" {
		return nil, fmt.Errorf("not a fastpath document (benchmark %q)", doc.Benchmark)
	}
	return doc.Rows, nil
}

// CompareFastPath checks fresh rows against committed ones, returning one
// message per regression: an operation whose device accesses per op grew
// more than tolerance (fractional, e.g. 0.10) over the committed value, or
// an operation that disappeared. Wall time is deliberately not compared —
// ns/op is machine-local, while device accesses are the deterministic,
// architecture-independent cost this benchmark exists to pin.
func CompareFastPath(committed, fresh []FastPathRow, tolerance float64) []string {
	byOp := make(map[string]FastPathRow, len(fresh))
	for _, r := range fresh {
		byOp[r.Op] = r
	}
	var regressions []string
	for _, want := range committed {
		got, ok := byOp[want.Op]
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: missing from fresh run", want.Op))
			continue
		}
		if limit := want.Accesses * (1 + tolerance); got.Accesses > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.2f device accesses/op, committed %.2f (+%.0f%% > %.0f%% tolerance)",
				want.Op, got.Accesses, want.Accesses,
				(got.Accesses/want.Accesses-1)*100, tolerance*100))
		}
	}
	return regressions
}
