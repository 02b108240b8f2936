package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printProvenance stamps the run's report with what produced it: the
// source (commit when run from a git checkout, and always a digest of the
// Go sources), toolchain, CPUs, seed and the workload's size.
func printProvenance(o opts, sh *shape) {
	p := map[string]any{
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
	}
	if sh != nil {
		p["workers"], p["connections"], p["keys"], p["buckets"] = sh.workers, conns, sh.keys, bucketsFor(sh.keys)
		p["geometry"] = geometryFor(sh)
	} else {
		p["goroutines"] = 2
		p["geometry"] = rpcGeometry
	}
	line, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Printf("provenance %s\n", line)
}

// cpuTimes reads the machine-wide CPU time counters (Linux /proc/stat, in
// clock ticks): total and stolen by the hypervisor. ok is false elsewhere.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// cpuMark is the machine's CPU time counters at one moment.
type cpuMark struct {
	total, steal uint64
	ok           bool
}

func markCPU() cpuMark {
	t, st, ok := cpuTimes()
	return cpuMark{total: t, steal: st, ok: ok}
}

// stolenSince returns the share of the machine's CPU time the hypervisor
// stole since m (0 where /proc/stat is not there).
func (m cpuMark) stolenSince() float64 {
	now := markCPU()
	if !m.ok || !now.ok || now.total == m.total {
		return 0
	}
	return float64(now.steal-m.steal) / float64(now.total-m.total)
}

// printSteal reports the share of CPU time the hypervisor stole from the
// machine during the window: background load that no change to this
// repository causes, printed with each pass so noisy runs can be told.
func printSteal(stolen float64) {
	fmt.Printf("  machine: %.1f%% of CPU time stolen by the hypervisor during the window\n", 100*stolen)
}

// gitCommit resolves HEAD of a git checkout in the working directory
// without running git; the benchmark may run from a plain source tree.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown (unresolved " + ref + ")"
}

// sourceDigest hashes every Go source and module file under the working
// directory (skipping hidden directories such as build output), so two
// runs can be matched to the same code even outside git.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err == nil {
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
