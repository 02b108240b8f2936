package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload (BENCHMARK.json lists the same names). "read" is a GET on the kv
// workloads and the Call round trip on rpc-pair; "write" is a PUT on the kv
// workloads and Caller.Arg (allocate and fill the argument) on rpc-pair.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"recovery_ms", "ms"},
	{"disruption_ms", "ms"},
}

// perLayer are the traced run's metrics, one group per layer. Each
// workload measures the layers it passes through; the others come from a
// short probe run (see README.md).
var perLayer = []metricDef{
	{"workload.gen_late_p99_us", "us"},
	{"netrpc.ping_p50_us", "us"},
	{"netrpc.ping_p99_us", "us"},
	{"netrpc.share_of_get", "ratio"},
	{"serving.dispatch_p50_us", "us"},
	{"serving.takeover_us", "us"},
	{"serving.stalled_writes", "count"},
	{"serving.rerouted", "count"},
	{"kv.get_ns", "ns"},
	{"kv.update_ns", "ns"},
	{"kv.scan_ns_per_record", "ns"},
	{"kv.get_loads", "count"},
	{"kv.update_loads", "count"},
	{"shm.arg_malloc_ns", "ns"},
	{"shm.release_ns", "ns"},
	{"shm.stores_per_call", "count"},
	{"shm.cas_per_call", "count"},
	{"shm.cas_retry_ratio", "ratio"},
	{"rpc.roundtrip_ns", "ns"},
	{"rpc.poll_empty_ratio", "ratio"},
	{"recovery.tick_p50_ms", "ms"},
	{"recovery.tick_busy_share", "ratio"},
	{"recovery.scans_per_tick", "count"},
	{"recovery.scan_yield", "ratio"},
	{"recovery.tick_overlap_share", "ratio"},
	{"recovery.detect_ms", "ms"},
	{"recovery.repair_ms", "ms"},
	{"cxl.accesses_per_tick", "count"},
	{"cxl.stores_per_op", "count"},
	{"cxl.cas_per_op", "count"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kvEndToEnd computes the end-to-end metrics of a kv pass, plus the same
// latencies under the op names the report prints (get_p50_us, ...). Rates
// and percentiles are medians over equal windows of the run (see
// windowedPercentile and windowedRate).
func kvEndToEnd(r *kvRun) (map[string]float64, error) {
	span := r.window.Nanoseconds()
	m := map[string]float64{
		"setup_s":       median(r.setup),
		"ops_per_s":     windowedRate(r.completions(), span),
		"recovery_ms":   ms(r.ep.Recovery.Nanoseconds()),
		"disruption_ms": ms(r.ep.Disruption.Nanoseconds()),
	}
	for kind, s := range r.latencies() {
		if err := tails(m, kind.String(), s.due, s.lat, span); err != nil && kind != opScan {
			return nil, err
		}
	}
	return alias(m, "get", "put"), nil
}

// rpcEndToEnd computes the end-to-end metrics of an rpc-pair pass.
func rpcEndToEnd(r *rpcRun) (map[string]float64, error) {
	span := r.window.Nanoseconds()
	m := map[string]float64{
		"setup_s":       median(r.setup),
		"ops_per_s":     windowedRate(r.starts, span),
		"recovery_ms":   ms(r.ep.Recovery.Nanoseconds()),
		"disruption_ms": ms(r.ep.Disruption.Nanoseconds()),
	}
	if err := tails(m, "call", r.starts, r.call, span); err != nil {
		return nil, err
	}
	if err := tails(m, "arg", r.starts, r.arg, span); err != nil {
		return nil, err
	}
	return alias(m, "call", "arg"), nil
}

// reported are the latency percentiles the report prints per op kind.
var reported = []struct {
	suffix string
	q      float64
}{{"_p50_us", 0.50}, {"_p90_us", 0.90}, {"_p99_us", 0.99}}

// tails sets m[name_p50_us], m[name_p90_us] and m[name_p99_us] to the
// windowed percentiles of vals. A p99 with too few samples beyond it is
// left out (the report says so); too few for the p90 is an error.
func tails(m map[string]float64, name string, starts, vals []int64, span int64) error {
	for _, t := range reported {
		v, err := windowedPercentile(name+t.suffix, starts, vals, span, t.q)
		if err != nil {
			if t.q == 0.99 {
				continue
			}
			return err
		}
		m[name+t.suffix] = us(v)
	}
	return nil
}

// alias copies the read and write op's p50 to the shared end-to-end names.
func alias(m map[string]float64, read, write string) map[string]float64 {
	m["read_p50_us"], m["write_p50_us"] = m[read+"_p50_us"], m[write+"_p50_us"]
	return m
}

// tickStats summarizes the monitor tick spans that started inside over:
// their p50 and the share of over they kept the monitor busy.
func tickStats(ticks []span, over span, m map[string]float64) {
	var durs []int64
	var busy int64
	for _, t := range ticks {
		if t.start < over.start || t.start >= over.end {
			continue
		}
		durs = append(durs, t.end-t.start)
		busy += min(t.end, over.end) - t.start
	}
	m["recovery.tick_p50_ms"] = ms(summarize(durs).P50)
	m["recovery.tick_busy_share"] = ratio(float64(busy), float64(over.end-over.start))
}

func counterStats(ctr map[string]uint64, m map[string]float64) {
	scans := float64(ctr["segment_scans"])
	m["recovery.scans_per_tick"] = ratio(scans, float64(ctr["monitor_ticks"]))
	m["recovery.scan_yield"] = ratio(float64(ctr["scan_blocks_reclaimed"]), scans)
}

func episodeStats(ep episode, m map[string]float64) {
	m["recovery.detect_ms"] = ms(ep.Detect.Nanoseconds())
	m["recovery.repair_ms"] = ms(ep.Repair.Nanoseconds())
}

// overlapShare is the share of ops whose [issue, end] span overlaps a
// monitor tick span.
func overlapShare(ops []span, ticks []span) float64 {
	if len(ops) == 0 {
		return 0
	}
	sorted := append([]span(nil), ticks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	n := 0
	for _, op := range ops {
		// The first tick ending after the op starts overlaps it iff it
		// started before the op ended (ticks do not overlap each other).
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].end >= op.start })
		if i < len(sorted) && sorted[i].start <= op.end {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}

// kvLedger computes the per-layer metrics a traced kv pass measures.
func kvLedger(r *kvRun) map[string]float64 {
	m := map[string]float64{}
	get := summarize(r.latencies()[opGet].lat)
	var late, pings []int64
	var slow []span
	for _, o := range r.outs {
		late = append(late, o.late...)
		pings = append(pings, o.pings...)
		for _, rec := range o.recs {
			if rec.kind == opGet && rec.end-rec.due > get.P99 {
				slow = append(slow, span{rec.issue, rec.end})
			}
		}
	}
	ping := summarize(pings)
	m["workload.gen_late_p99_us"] = us(summarize(late).P99)
	m["netrpc.ping_p50_us"] = us(ping.P50)
	m["netrpc.ping_p99_us"] = us(ping.P99)
	m["netrpc.share_of_get"] = ratio(float64(ping.P50), float64(get.P50))
	m["serving.dispatch_p50_us"] = us(get.P50 - ping.P50)
	m["serving.takeover_us"] = us(r.ep.Takeover.Nanoseconds())
	m["serving.stalled_writes"] = float64(r.stalled)
	m["serving.rerouted"] = float64(r.rerouted)
	tickStats(r.ticks, span{0, r.window.Nanoseconds()}, m)
	counterStats(r.counter, m)
	m["recovery.tick_overlap_share"] = overlapShare(slow, r.ticks)
	episodeStats(r.ep, m)
	if rp := r.replay; rp != nil {
		m["kv.get_ns"] = float64(summarize(rp.getNS).P50)
		m["kv.update_ns"] = float64(summarize(rp.updateNS).P50)
		m["kv.scan_ns_per_record"] = ratio(float64(rp.scanNS), float64(rp.scanRecords))
		m["kv.get_loads"] = rp.get.per(rp.get.loads)
		m["kv.update_loads"] = rp.update.per(rp.update.loads)
		m["cxl.accesses_per_tick"] = rp.accessesPerTick
		m["cxl.stores_per_op"] = rp.all.per(rp.all.stores)
		m["cxl.cas_per_op"] = rp.all.per(rp.all.cases)
	}
	return m
}

// rpcLedger computes the per-layer metrics a traced rpc-pair pass measures.
func rpcLedger(r *rpcRun) map[string]float64 {
	m := map[string]float64{}
	m["workload.gen_late_p99_us"] = us(summarize(r.late).P99)
	m["shm.arg_malloc_ns"] = float64(summarize(r.arg).P50)
	m["shm.release_ns"] = float64(summarize(r.release).P50)
	m["shm.cas_retry_ratio"] = ratio(float64(r.counter["refcnt_cas_retries"]), float64(r.counter["refcnt_cas_attempts"]))
	m["rpc.roundtrip_ns"] = float64(summarize(r.call).P50)
	empty, recv := float64(r.counter["queue_empty"]), float64(r.counter["queue_receive"])
	m["rpc.poll_empty_ratio"] = ratio(empty, empty+recv)
	tickStats(r.ticks, r.monitor, m)
	counterStats(r.monCounter, m)
	m["recovery.tick_overlap_share"] = 0 // no monitor runs during the call window
	episodeStats(r.ep, m)
	if rp := r.replay; rp != nil {
		m["shm.stores_per_call"] = rp.shm.per(rp.shm.stores)
		m["shm.cas_per_call"] = rp.shm.per(rp.shm.cases)
		m["cxl.accesses_per_tick"] = rp.accessesPerTick
		m["cxl.stores_per_op"] = rp.all.per(rp.all.stores)
		m["cxl.cas_per_op"] = rp.all.per(rp.all.cases)
	}
	return m
}

// printMetrics writes name value unit lines for defs found in m.
func printMetrics(w io.Writer, defs []metricDef, m map[string]float64, note func(string) string) {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			continue
		}
		extra := ""
		if note != nil {
			extra = note(d.name)
		}
		fmt.Fprintf(w, "  %-28s %14.4f %-6s %s\n", d.name, v, d.unit, extra)
	}
}
