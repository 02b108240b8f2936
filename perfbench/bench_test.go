package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []int64
	for i := int64(1); i <= 100; i++ {
		s = append(s, i)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d", got)
	}
	sum := summarize([]int64{5, 1, 4, 2, 3})
	if sum.N != 5 || sum.P50 != 3 || sum.P99 != 5 {
		t.Errorf("summarize = %+v", sum)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want float64
	}{{nil, 0}, {[]float64{7}, 7}, {[]float64{7, 2, 4}, 4}, {[]float64{7, 2, 4, 1}, 3}} {
		if got := median(c.vals); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

func TestTailRule(t *testing.T) {
	if tailOK(999, 0.99) || beyond(999, 0.99) != 9 {
		t.Errorf("999 samples: %d beyond p99, ok=%v; want 9, false", beyond(999, 0.99), tailOK(999, 0.99))
	}
	if !tailOK(1000, 0.99) || beyond(1000, 0.99) != 10 {
		t.Errorf("1000 samples: %d beyond p99, ok=%v; want 10, true", beyond(1000, 0.99), tailOK(1000, 0.99))
	}
	if !tailOK(20, 0.5) || tailOK(19, 0.5) {
		t.Error("a median needs 20 samples to leave 10 beyond it")
	}
}

// Windows are equal time slices; rates and percentiles are medians over
// them, and the window count shrinks until each window has enough samples
// beyond the percentile.
func TestWindowedStats(t *testing.T) {
	const span = int64(15_000)
	var starts, vals []int64
	for s := int64(0); s < span; s++ {
		starts = append(starts, s)
		v := int64(10)
		if s >= 13_000 { // a burst in the last two windows
			v = 1000
		}
		vals = append(vals, v)
	}
	// 1000 events per 1000ns window.
	if got := windowedRate(starts, span); got != 1e9 {
		t.Errorf("windowedRate = %v, want 1e9/s", got)
	}
	got, err := windowedPercentile("x", starts, vals, span, 0.99)
	if err != nil || got != 10 {
		t.Errorf("windowed p99 with a two-window burst = %d, %v; want 10", got, err)
	}
	// Events in the first 7 windows only: the median window is empty.
	if rate := windowedRate(starts[:7_000], span); rate != 0 {
		t.Errorf("rate with 8 of 15 windows empty = %v, want 0", rate)
	}
	// 1500 samples: one window of 1500 satisfies the p99 tail rule, 15 of
	// 100 do not.
	few := starts[:1500]
	if _, err := windowedPercentile("x", few, vals[:1500], 1500, 0.99); err != nil {
		t.Errorf("1500 samples in one window: %v", err)
	}
	if _, err := windowedPercentile("x", few[:900], vals[:900], 1500, 0.99); err == nil {
		t.Error("900 samples gave a p99")
	}
}

func TestValueVersions(t *testing.T) {
	buf := make([]byte, valSize)
	fillValue(buf, 42, 7)
	if ver, ok := checkValue(buf, 42); !ok || ver != 7 {
		t.Fatalf("checkValue = %d, %v; want 7, true", ver, ok)
	}
	if _, ok := checkValue(buf, 43); ok {
		t.Error("value of key 42 accepted for key 43")
	}
	buf[40] ^= 1
	if _, ok := checkValue(buf, 42); ok {
		t.Error("value with a flipped derived byte accepted")
	}
	other := make([]byte, valSize)
	fillValue(other, 42, 8)
	copy(other[8:12], buf[8:12]) // version 7's number over version 8's bytes
	if _, ok := checkValue(other, 42); ok {
		t.Error("version number and derived bytes from different versions accepted")
	}
}

func TestOpStreamDeterministic(t *testing.T) {
	sh := kvShapes["kv-large-update"]
	stream := func(seed int64, g int) []genOp {
		gen, err := newOpGen(sh, seed, g)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]genOp, 5000)
		for i := range ops {
			ops[i] = gen.next()
		}
		return ops
	}
	a, b := stream(7, 1), stream(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op streams")
	}
	if reflect.DeepEqual(a, stream(8, 1)) {
		t.Fatal("different seeds gave the same op stream")
	}
	for i, op := range a {
		if (i+1)%sh.scanEvery == 0 && op.kind != opScan {
			t.Fatalf("op %d is %v, want a scan every %d ops", i, op.kind, sh.scanEvery)
		}
		if op.kind == opPut && (op.key%conns != 1 || op.key >= uint64(sh.keys)) {
			t.Fatalf("connection 1 writes key %d, which it does not own", op.key)
		}
	}
}

// An op that stalls for 50ms must show up as lateness on the ops of its
// connection that were due during the stall, and as latency on itself;
// the due times must not move with the stall.
func TestOpenLoopStallCountsAsLateness(t *testing.T) {
	const (
		rate    = 400.0 // 2 connections: each an op every 5ms on average
		stall   = 50 * time.Millisecond
		stallAt = 3
	)
	run := func(stalls bool) connOut {
		lg := &loadGen{sh: kvShapes["kv-failover"], seed: 1, epoch: time.Now()}
		lg.windowEnd = (200 * time.Millisecond).Nanoseconds()
		lg.stopAt.Store(lg.windowEnd)
		var n [conns]atomic.Int32
		lg.doOp = func(g int, op genOp, buf []byte) (int, error) {
			if n[g].Add(1)-1 == stallAt && g == 0 && stalls {
				time.Sleep(stall)
			}
			return 0, nil
		}
		return lg.run(rate)[0]
	}
	out, calm := run(true), run(false)
	if len(out.recs) != len(calm.recs) {
		t.Fatalf("%d ops with the stall, %d without: the schedule moved", len(out.recs), len(calm.recs))
	}
	for i := range out.recs {
		if out.recs[i].due != calm.recs[i].due {
			t.Fatalf("op %d due at %dns with the stall, %dns without", i, out.recs[i].due, calm.recs[i].due)
		}
	}
	stalled := out.recs[stallAt]
	if lat := stalled.end - stalled.due; lat < stall.Nanoseconds() {
		t.Errorf("stalled op latency %v, want at least %v", time.Duration(lat), stall)
	}
	behind := 0
	for i := stallAt + 1; i < len(out.recs); i++ {
		rec := out.recs[i]
		if rec.due >= stalled.end-time.Millisecond.Nanoseconds() {
			break
		}
		behind++
		want := time.Duration(stalled.end - rec.due)
		if got := time.Duration(out.late[i]); got < want {
			t.Errorf("op %d due %v before the stall ended was %v late", i, want, got)
		}
		if lat := time.Duration(rec.end - rec.due); lat < want {
			t.Errorf("op %d latency %v does not include its %v wait", i, lat, want)
		}
	}
	if behind < 3 {
		t.Errorf("only %d ops were due during a %v stall at %v ops/s", behind, stall, rate/conns)
	}
}

func TestOverlapShare(t *testing.T) {
	ticks := []span{{100, 200}, {300, 400}}
	ops := []span{{50, 99}, {50, 100}, {150, 160}, {210, 290}, {390, 500}, {401, 500}}
	if got := overlapShare(ops, ticks); got != 3.0/6 {
		t.Errorf("overlapShare = %v, want 0.5", got)
	}
}

// The access counts are gates only if they repeat exactly.
func TestReplayCountsRepeat(t *testing.T) {
	sh := &shape{name: "test", workers: 2, keys: 5000, zipf: 0.99, writeRatio: 0.3, scanEvery: 64, scanSpan: 64}
	a, err := replayKV(sh, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayKV(sh, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		x, y any
	}{
		{"get", a.get, b.get}, {"update", a.update, b.update}, {"scan", a.scan, b.scan},
		{"all", a.all, b.all}, {"ticks", a.accessesPerTick, b.accessesPerTick},
	} {
		if !reflect.DeepEqual(c.x, c.y) {
			t.Errorf("kv replay %s counts differ: %+v vs %+v", c.name, c.x, c.y)
		}
	}
	if a.get.ops == 0 || a.update.ops == 0 || a.scan.ops == 0 || a.get.loads == 0 {
		t.Errorf("kv replay counted nothing: %+v", a)
	}

	r1, err := replayRPC(3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := replayRPC(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*r1, *r2) {
		t.Errorf("rpc replay counts differ: %+v vs %+v", *r1, *r2)
	}
	if r1.shm.stores == 0 || r1.all.stores <= r1.shm.stores {
		t.Errorf("rpc replay: shm stores %d of %d total", r1.shm.stores, r1.all.stores)
	}
}

// BENCHMARK.json must name exactly the metrics the binary reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the package:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, binary %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, binary %s %s", what, i,
					got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Work {
		if _, ok := kvShapes[w.Name]; !ok && w.Name != "rpc-pair" {
			t.Errorf("workload %s is not one the binary runs", w.Name)
		}
	}
}
