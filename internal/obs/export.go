package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Metrics bundles one pool's registry and tracer.
type Metrics struct {
	reg *Registry
	trc *Tracer

	mu   sync.Mutex
	sink EventSink
}

// EventSink receives every traced event after it enters the in-heap ring.
// shm.Pool installs one that mirrors recovery-lifecycle events into the
// pool's crash-surviving telemetry ring.
type EventSink func(Event)

// New creates a Metrics with nshards counter shards and a trace ring of
// traceCap events.
func New(nshards, traceCap int) *Metrics {
	return &Metrics{reg: NewRegistry(nshards), trc: NewTracer(traceCap)}
}

// Shard returns counter shard i (0 = pool shard, 1.. = per-client).
func (m *Metrics) Shard(i int) *Shard {
	if m == nil {
		return nil
	}
	return m.reg.Shard(i)
}

// Tracer returns the event tracer.
func (m *Metrics) Tracer() *Tracer {
	if m == nil {
		return nil
	}
	return m.trc
}

// SetEventSink installs (or, with nil, removes) the event mirror.
func (m *Metrics) SetEventSink(fn EventSink) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.sink = fn
	m.mu.Unlock()
}

// Trace records one lifecycle event.
func (m *Metrics) Trace(e Event) {
	if m == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	m.trc.Record(e)
	m.mu.Lock()
	sink := m.sink
	m.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Snapshot aggregates the registry into an exportable snapshot.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	return snapshotOf(m.reg)
}

// HistogramSnapshot is one aggregated histogram. Buckets[i] counts
// observations below BucketUpper(i) and at or above BucketUpper(i-1);
// quantile bounds are bucket upper bounds (so they overestimate by at most
// 2x, the log2 bucket width).
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Buckets []uint64 `json:"buckets,omitempty"`
	P50NS   uint64   `json:"p50_ns,omitempty"`
	P99NS   uint64   `json:"p99_ns,omitempty"`
	MaxNS   uint64   `json:"max_ns,omitempty"`
}

// Quantile returns the upper bound of the bucket holding quantile q (0..1).
func (h HistogramSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(q * float64(h.Count))
	if want >= h.Count {
		want = h.Count - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen > want {
			return BucketUpper(i)
		}
	}
	return BucketUpper(len(h.Buckets) - 1)
}

// Snapshot is a point-in-time aggregate of every counter and histogram.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

func snapshotOf(r *Registry) Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64, NumCounters),
		Histograms: make(map[string]HistogramSnapshot, NumHistos),
	}
	ctrs := r.Counters()
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c.Name()] = ctrs[c]
	}
	for h := Histo(0); h < NumHistos; h++ {
		s.Histograms[h.Name()] = finishHistogram(r.Histogram(h))
	}
	return s
}

// MakeHistogramSnapshot finishes a raw bucket vector into an exportable
// histogram (count, quantiles) — for readers that obtain bucket vectors
// from outside a Registry, e.g. the shared telemetry region.
func MakeHistogramSnapshot(buckets [HistBuckets]uint64) HistogramSnapshot {
	return finishHistogram(buckets)
}

func finishHistogram(buckets [HistBuckets]uint64) HistogramSnapshot {
	var hs HistogramSnapshot
	for i, c := range buckets {
		hs.Count += c
		if c > 0 {
			hs.MaxNS = BucketUpper(i)
		}
	}
	if hs.Count == 0 {
		return hs
	}
	hs.Buckets = append(hs.Buckets, buckets[:]...)
	hs.P50NS = hs.Quantile(0.50)
	hs.P99NS = hs.Quantile(0.99)
	return hs
}

// Sub returns the delta snapshot s - prev (counter-wise and bucket-wise),
// for reporting what one experiment contributed on top of a running total.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		d := v - prev.Counters[k]
		if d > v { // underflow: prev had more (disjoint snapshots); clamp
			d = 0
		}
		out.Counters[k] = d
	}
	for k, h := range s.Histograms {
		p := prev.Histograms[k]
		var dh HistogramSnapshot
		var buckets [HistBuckets]uint64
		for i := range h.Buckets {
			v := h.Buckets[i]
			if i < len(p.Buckets) {
				if d := v - p.Buckets[i]; d <= v {
					v = d
				} else {
					v = 0
				}
			}
			if i < HistBuckets {
				buckets[i] = v
			}
		}
		dh = finishHistogram(buckets)
		out.Histograms[k] = dh
	}
	return out
}

// WriteSummary renders the snapshot as a human-readable table: non-zero
// counters in declaration order, then histogram quantiles.
func (s Snapshot) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "%-26s %12s\n", "counter", "value")
	fmt.Fprintf(w, "%s\n", "---------------------------------------")
	for c := Counter(0); c < NumCounters; c++ {
		if v := s.Counters[c.Name()]; v != 0 {
			fmt.Fprintf(w, "%-26s %12d\n", c.Name(), v)
		}
	}
	for h := Histo(0); h < NumHistos; h++ {
		hs, ok := s.Histograms[h.Name()]
		if !ok || hs.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-26s count=%d p50<%dns p99<%dns max<%dns\n",
			h.Name(), hs.Count, hs.P50NS, hs.P99NS, hs.MaxNS)
	}
}

// MarshalIndentJSON renders the snapshot (plus optional events) as indented
// JSON, the exporter's file format.
func MarshalIndentJSON(s Snapshot, events []Event) ([]byte, error) {
	return MarshalReportJSON(s, events, nil)
}

// MarshalReportJSON is MarshalIndentJSON with a provenance stanza, so
// BENCH_*/FAULTSIM_* files carry enough context (build, backend, geometry)
// to be compared across runs and machines.
func MarshalReportJSON(s Snapshot, events []Event, prov *Provenance) ([]byte, error) {
	return json.MarshalIndent(struct {
		Provenance *Provenance `json:"provenance,omitempty"`
		Snapshot
		Events []Event `json:"events,omitempty"`
	}{prov, s, events}, "", "  ")
}

// --- process-global aggregation ---
//
// Benchmarks and the fault-injection campaign construct pools deep inside
// experiment harnesses, so the exporter binaries cannot reach each pool's
// Metrics directly. When global collection is enabled (exporters opt in
// before running), every Metrics created by shm.NewPool registers itself
// here and GlobalSnapshot aggregates across all of them. Off by default so
// ordinary tests don't accumulate registries.

var global struct {
	mu      sync.Mutex
	enabled bool
	ms      []*Metrics
}

// EnableGlobal turns on process-global metrics collection.
func EnableGlobal() {
	global.mu.Lock()
	global.enabled = true
	global.mu.Unlock()
}

// Register adds m to the global collection set (no-op unless enabled).
func Register(m *Metrics) {
	if m == nil {
		return
	}
	global.mu.Lock()
	if global.enabled {
		global.ms = append(global.ms, m)
	}
	global.mu.Unlock()
}

// GlobalSnapshot sums every registered pool's counters and histograms.
func GlobalSnapshot() Snapshot {
	global.mu.Lock()
	ms := append([]*Metrics(nil), global.ms...)
	global.mu.Unlock()

	var ctrs [NumCounters]uint64
	var hists [NumHistos][HistBuckets]uint64
	for _, m := range ms {
		c := m.reg.Counters()
		for i := Counter(0); i < NumCounters; i++ {
			ctrs[i] += c[i]
		}
		for h := Histo(0); h < NumHistos; h++ {
			b := m.reg.Histogram(h)
			for i := 0; i < HistBuckets; i++ {
				hists[h][i] += b[i]
			}
		}
	}
	s := Snapshot{
		Counters:   make(map[string]uint64, NumCounters),
		Histograms: make(map[string]HistogramSnapshot, NumHistos),
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters[c.Name()] = ctrs[c]
	}
	for h := Histo(0); h < NumHistos; h++ {
		s.Histograms[h.Name()] = finishHistogram(hists[h])
	}
	return s
}
