// Command perfbench is the repository's end-to-end benchmark: the
// multi-process kv serving tier, pass-by-reference CXL-RPC, and failover
// of both, each with its outputs checked. See README.md for the workloads
// and the layer ↔ metric map.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--dir D]
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones of a separate
// traced pass, and the report also prints the attribution rows and the
// tracing overhead (traced minus untraced end-to-end values).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// shape is one kv workload.
type shape struct {
	name       string
	workers    int
	keys       int
	zipf       float64 // YCSB zipfian θ; 0 is uniform
	writeRatio float64
	scanEvery  int     // every scanEvery-th op of a connection is a batch scan
	scanSpan   int     // records per scan
	openRate   float64 // total ops/s of an open loop; 0 is a closed loop
	// killFrac is when, as a share of the window, one worker is killed;
	// 1 kills quietKills of them one after another once the window is over,
	// outside the measured ops.
	killFrac float64
}

var kvShapes = map[string]*shape{
	"kv-hot-read": {name: "kv-hot-read", workers: 2, keys: 100_000,
		zipf: 0.99, writeRatio: 0.05, killFrac: 1},
	"kv-large-update": {name: "kv-large-update", workers: 2, keys: 400_000,
		writeRatio: 0.5, scanEvery: 64, scanSpan: 64, killFrac: 1},
	"kv-failover": {name: "kv-failover", workers: 3, keys: 100_000,
		zipf: 0.99, writeRatio: 0.3, openRate: 1000, killFrac: 1.0 / 3},
}

// probeShape and probeSeconds size the short probe runs that measure, in a
// traced run, the layers the workload itself does not pass through.
var probeShape = &shape{name: "probe-kv", workers: 2, keys: 10_000,
	zipf: 0.99, writeRatio: 0.05, killFrac: 1}

const probeSeconds = 2.0

// Set-ups per pass; the median is setup_s. An rpc-pair set-up takes a few
// milliseconds, so it is repeated more to steady the median.
const (
	kvSetups  = 5
	rpcSetups = 31
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "kv-hot-read, kv-large-update, kv-failover or rpc-pair")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured window per pass")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a separate traced pass")
	flag.StringVar(&o.dir, "dir", ".bench_build/tmp", "directory for pool files")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o opts) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	sh, isKV := kvShapes[o.workload]
	if !isKV && o.workload != "rpc-pair" {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	printProvenance(o, sh)
	var b bench
	if isKV {
		b = &kvBench{o: o, sh: sh, exe: exe}
	} else {
		b = &rpcBench{o: o, exe: exe}
	}
	if !o.trace {
		m, err := b.pass(false, o.seconds)
		if err != nil {
			return nil, err
		}
		fmt.Println("end-to-end:")
		printMetrics(os.Stdout, endToEnd, m, nil)
		return b.result(m, endToEnd), nil
	}

	untraced, err := b.pass(false, o.seconds)
	if err != nil {
		return nil, err
	}
	traced, err := b.pass(true, o.seconds)
	if err != nil {
		return nil, err
	}
	ledger, err := b.ledger()
	if err != nil {
		return nil, err
	}
	fmt.Println("tracing overhead (traced minus untraced pass):")
	for _, d := range endToEnd {
		u, t := untraced[d.name], traced[d.name]
		fmt.Printf("  %-28s %+14.4f %-6s (%+.1f%%)\n", d.name, t-u, d.unit, 100*ratio(t-u, u))
	}
	b.attribution(traced, ledger.m)
	fmt.Println("per-layer ledger:")
	printMetrics(os.Stdout, perLayer, ledger.m, func(name string) string {
		if src := ledger.probe[name]; src != "" {
			return "(probe: " + src + ")"
		}
		return ""
	})
	return b.result(ledger.m, perLayer), nil
}

// ledger is a traced run's per-layer metrics; probe names, per metric, the
// probe run it came from when the workload does not pass through the layer.
type ledger struct {
	m     map[string]float64
	probe map[string]string
}

// fill takes from m every metric the ledger does not have yet.
func (l *ledger) fill(m map[string]float64, source string) {
	for k, v := range m {
		if _, ok := l.m[k]; !ok {
			l.m[k] = v
			l.probe[k] = source
		}
	}
}

// bench is one workload family: it runs passes, accumulates their checks,
// and turns them into metrics.
type bench interface {
	pass(traced bool, seconds float64) (map[string]float64, error)
	ledger() (*ledger, error)
	attribution(traced map[string]float64, layer map[string]float64)
	result(m map[string]float64, defs []metricDef) *result
}

// checks accumulates every pass's output checks.
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *checks) result(m map[string]float64, defs []metricDef) *result {
	for _, p := range c.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res := &result{Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			res.Correct = false
			fmt.Println("CHECK FAILED: metric not measured:", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res
}

// kvBench runs a kv workload.
type kvBench struct {
	checks
	o      opts
	sh     *shape
	exe    string
	traced *kvRun
}

func (b *kvBench) pass(traced bool, seconds float64) (map[string]float64, error) {
	r, err := runKV(b.sh, b.o.seed, seconds, traced, kvSetups, b.o.dir, b.exe)
	if err != nil {
		return nil, err
	}
	b.accountKV(r)
	m, err := kvEndToEnd(r)
	if err != nil {
		return nil, err
	}
	reportKV(r, m)
	printSteal(r.stolen)
	if traced {
		b.traced = r
	}
	return m, nil
}

// accountKV adds a kv pass's checks.
func (c *checks) accountKV(r *kvRun) {
	c.attempted += r.attempted
	c.failed += r.failed + r.verdict.Lost + r.verdict.Corrupt
	if r.failed > 0 {
		c.problem("%s: %d of %d ops failed; first: %v", r.sh.name, r.failed, r.attempted, r.firstErr)
	}
	v := r.verdict
	if !v.ok() {
		c.problem("%s: read-back of %d keys: %d lost or stale acked writes, %d corrupt; fsck clean=%v (%d issues)",
			r.sh.name, v.Keys, v.Lost, v.Corrupt, v.FsckClean, v.FsckIssues)
	}
}

func (b *kvBench) ledger() (*ledger, error) {
	l := &ledger{m: kvLedger(b.traced), probe: map[string]string{}}
	p, err := runRPC(b.o.seed, probeSeconds, true, 1)
	if err != nil {
		return nil, fmt.Errorf("rpc probe: %w", err)
	}
	b.accountRPC(p)
	l.fill(rpcLedger(p), "rpc-pair 2s")
	return l, nil
}

func (b *kvBench) attribution(traced, layer map[string]float64) {
	ping := layer["netrpc.ping_p50_us"]
	fmt.Println("attribution (netrpc ping p50 + in-process kv op vs served p50):")
	for _, row := range []struct {
		name, kvMetric, e2e string
	}{{"get", "kv.get_ns", "read_p50_us"}, {"put", "kv.update_ns", "write_p50_us"}} {
		kvUS := layer[row.kvMetric] / 1e3
		served := traced[row.e2e]
		sum := ping + kvUS
		fmt.Printf("  %-4s %8.2f us ping + %6.2f us kv = %8.2f us vs %8.2f us served; residual %+8.2f us (%.0f%% of served)\n",
			row.name, ping, kvUS, sum, served, served-sum, 100*ratio(served-sum, served))
	}
}

// rpcBench runs the rpc-pair workload.
type rpcBench struct {
	checks
	o      opts
	exe    string
	traced *rpcRun
}

func (b *rpcBench) pass(traced bool, seconds float64) (map[string]float64, error) {
	r, err := runRPC(b.o.seed, seconds, traced, rpcSetups)
	if err != nil {
		return nil, err
	}
	b.accountRPC(r)
	m, err := rpcEndToEnd(r)
	if err != nil {
		return nil, err
	}
	reportRPC(r, m)
	printSteal(r.stolen)
	if traced {
		b.traced = r
	}
	return m, nil
}

// accountRPC adds an rpc-pair pass's checks.
func (c *checks) accountRPC(r *rpcRun) {
	c.attempted += r.attempted
	c.failed += r.failed
	if r.failed > 0 {
		c.problem("rpc-pair: %d of %d calls failed; first: %v", r.failed, r.attempted, r.firstErr)
	}
	if !r.fsckClean {
		c.problem("rpc-pair: fsck found %d issues", r.fsckIssues)
	}
}

func (b *rpcBench) ledger() (*ledger, error) {
	l := &ledger{m: rpcLedger(b.traced), probe: map[string]string{}}
	p, err := runKV(probeShape, b.o.seed, probeSeconds, true, 1, b.o.dir, b.exe)
	if err != nil {
		return nil, fmt.Errorf("kv probe: %w", err)
	}
	b.accountKV(p)
	l.fill(kvLedger(p), fmt.Sprintf("%s %d keys 2s", probeShape.name, probeShape.keys))
	return l, nil
}

func (b *rpcBench) attribution(traced, layer map[string]float64) {
	fmt.Println("attribution (shm Arg + rpc round trip + two releases vs one call cycle at ops_per_s):")
	arg, call, rel := layer["shm.arg_malloc_ns"], layer["rpc.roundtrip_ns"], layer["shm.release_ns"]
	sum, cycle := arg+call+2*rel, 1e9/traced["ops_per_s"]
	fmt.Printf("  call %6.0f ns arg + %6.0f ns round trip + 2 × %4.0f ns release = %6.0f ns vs %6.0f ns per call; residual %+6.0f ns (%.0f%%)\n",
		arg, call, rel, sum, cycle, cycle-sum, 100*ratio(cycle-sum, cycle))
}

// reportKV prints a kv pass's metrics under the names the workload
// definitions use, with sample counts and checks.
func reportKV(r *kvRun, e2e map[string]float64) {
	lat := r.latencies()
	loop := "closed loop"
	if r.sh.openRate > 0 {
		loop = fmt.Sprintf("open loop at %.0f ops/s", r.sh.openRate)
	}
	fmt.Printf("pass %s: %s, %d connections, %d worker processes, %d keys, window %.1fs\n",
		r.sh.name, loop, conns, r.sh.workers, r.sh.keys, r.window.Seconds())
	fmt.Printf("  %-28s %14.4f %-6s (median of %v)\n", "setup_s", e2e["setup_s"], "s", r.setup)
	fmt.Printf("  %-28s %14.4f %-6s (%d ops)\n", "ops_per_s", e2e["ops_per_s"], "1/s", r.windowOps())
	for _, k := range []opKind{opGet, opPut, opScan} {
		printTails(e2e, k.String(), len(lat[k].lat))
	}
	var rec, dis []string
	for _, ep := range r.eps {
		rec = append(rec, fmt.Sprintf("%.1f", ms(ep.Recovery.Nanoseconds())))
		dis = append(dis, fmt.Sprintf("%.1f", ms(ep.Disruption.Nanoseconds())))
	}
	fmt.Printf("  %-28s %14.4f %-6s (median of %v)\n", "recovery_ms", e2e["recovery_ms"], "ms", rec)
	fmt.Printf("  %-28s %14.4f %-6s (median of %v)\n", "disruption_ms", e2e["disruption_ms"], "ms", dis)
	if r.sh.openRate > 0 {
		misses := r.sloMisses()
		fmt.Printf("  %-28s %14.4f %-6s (%d of %d ops later than %v after due)\n", "slo_miss_pct",
			100*ratio(float64(misses), float64(r.windowOps())), "%", misses, r.windowOps(), sloLimit)
	}
	v := r.verdict
	fmt.Printf("  %-28s %14.4f %-6s (%d failed + %d lost/stale + %d corrupt of %d ops)\n", "error_pct",
		100*ratio(float64(r.failed+v.Lost+v.Corrupt), float64(r.attempted)), "%", r.failed, v.Lost, v.Corrupt, r.attempted)
	fmt.Printf("  checks: every read verified (%d bad); read-back %d keys, %d lost/stale, %d corrupt; fsck clean=%v\n",
		r.badReads, v.Keys, v.Lost, v.Corrupt, v.FsckClean)
}

func reportRPC(r *rpcRun, e2e map[string]float64) {
	fmt.Printf("pass rpc-pair: closed loop, 1 caller + 1 server goroutine, window %.1fs\n", r.window.Seconds())
	fmt.Printf("  %-28s %14.4f %-6s (median of %d)\n", "setup_s", e2e["setup_s"], "s", len(r.setup))
	fmt.Printf("  %-28s %14.4f %-6s (%d calls)\n", "ops_per_s", e2e["ops_per_s"], "1/s", r.calls)
	printTails(e2e, "call", len(r.call))
	printTails(e2e, "arg", len(r.arg))
	fmt.Printf("  %-28s %14.4f %-6s\n", "recovery_ms", e2e["recovery_ms"], "ms")
	fmt.Printf("  %-28s %14.4f %-6s\n", "disruption_ms", e2e["disruption_ms"], "ms")
	fmt.Printf("  %-28s %14.4f %-6s (%d of %d calls)\n", "error_pct",
		100*ratio(float64(r.failed), float64(r.attempted)), "%", r.failed, r.attempted)
	fmt.Printf("  checks: every call's output verified; fsck clean=%v\n", r.fsckClean)
}

// printTails prints an op kind's windowed percentiles from m, with the
// sample count and how many samples lie beyond each.
func printTails(m map[string]float64, name string, n int) {
	if n == 0 {
		return
	}
	for _, p := range reported {
		note := fmt.Sprintf("(n=%d, %d beyond)", n, beyond(n, p.q))
		if v, ok := m[name+p.suffix]; ok {
			fmt.Printf("  %-28s %14.4f %-6s %s\n", name+p.suffix, v, "us", note)
		} else {
			fmt.Printf("  %-28s %14s %-6s %s too few samples\n", name+p.suffix, "-", "us", note)
		}
	}
}
