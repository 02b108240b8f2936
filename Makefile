# Developer entry points. `make verify` is the full pre-merge gate:
# vet + build + tests, plus the race detector on the concurrency-heavy
# packages (device handles and middleware, allocator, recovery, metrics).

GO ?= go

.PHONY: all build test vet race verify bench bench-fastpath bench-compare \
	bench-smoke test-mmap sweep corrupt fsck-smoke top-smoke ci \
	bench-resilience bench-scale serving-smoke bench-serving serving-compare

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/cxl ./internal/shm ./internal/recovery ./internal/obs .

# bench-smoke runs the fast-path micro-benchmarks a handful of iterations
# under the race detector: not for numbers, but to drive the benchmark paths
# (shadow caches, batched transfer) through the race checker cheaply.
bench-smoke:
	$(GO) test -race -run xxx -bench 'BenchmarkAlloc$$|BenchmarkMallocFree|BenchmarkQueueTransfer|BenchmarkQueueBatch' -benchtime 10x .

verify: vet build test race bench-smoke

# test-mmap re-runs the core packages with every pool on the mmap'd-file
# backend (cxl.MapDevice over an unlinked temp file), the recovery crash
# matrix included, plus a short fault-injection campaign.
test-mmap:
	CXLSHM_BACKEND=mmap $(GO) test ./internal/shm ./internal/recovery ./internal/check ./internal/alloc .
	CXLSHM_BACKEND=mmap $(GO) test -run TestRecoverEveryCrashPoint ./internal/recovery
	$(GO) run ./cmd/faultsim -trials 50 -backend mmap

# sweep runs the bounded access-granular crash sweep on both backends:
# every scripted operation crashed at up to 40 of its device writes, each
# followed by recovery and a full-pool fsck, plus a phase-B pass that
# crashes the recovery executor itself. Violations print a minimal
# `faultsim -repro` line and fail the target.
sweep:
	$(GO) run ./cmd/faultsim -sweep -max-writes 40 -recovery-sweep
	$(GO) run ./cmd/faultsim -sweep -max-writes 40 -recovery-sweep -backend mmap

# corrupt runs the bounded corruption campaign on both backends: every
# fault class (bit flip, torn write, stuck CAS) against every targetable
# metadata region, each trial followed by the repairing fsck, a full
# revalidation, and a rerun of the scripted workload over the repaired
# pool. Violations print a `faultsim -corrupt` repro line and fail.
corrupt:
	$(GO) run ./cmd/faultsim -corrupt -resilience-out ""

# bench-resilience runs the same campaign and (re)writes
# BENCH_resilience.json in the repo root: repair success rate and
# blast-radius distribution per fault class, both backends.
bench-resilience:
	$(GO) run ./cmd/faultsim -corrupt

# fsck-smoke drives the operator-facing repair path end to end: build a
# pool file, check it clean, flip a superblock bit and repair it in the
# same invocation (a persisted superblock flip would brick the next
# attach — geometry is read from the superblock), then demand a clean
# re-check of the same file.
fsck-smoke:
	rm -f .ci-fsck.cxl
	$(GO) run ./cmd/cxlsnap -create .ci-fsck.cxl -mmap -keys 100
	$(GO) run ./cmd/cxlsnap -fsck .ci-fsck.cxl
	$(GO) run ./cmd/cxlsnap -fsck .ci-fsck.cxl -flip 2:4 -repair
	$(GO) run ./cmd/cxlsnap -fsck .ci-fsck.cxl
	rm -f .ci-fsck.cxl

# top-smoke drives the observer tooling end to end across processes: build
# a pool on an mmap'd file, crash its client, attach cxltop read-only for
# one JSON and one Prometheus snapshot, recover the pool, and pretty-print
# the crash-surviving telemetry (the dead client's final counters).
top-smoke:
	rm -f .ci-top.cxl
	$(GO) run ./cmd/cxlsnap -create .ci-top.cxl -mmap -keys 100
	$(GO) run ./cmd/cxltop -once -json .ci-top.cxl > /dev/null
	$(GO) run ./cmd/cxltop -once -prom .ci-top.cxl > /dev/null
	$(GO) run ./cmd/cxlsnap -open .ci-top.cxl
	$(GO) run ./cmd/cxlsnap -metrics .ci-top.cxl > /dev/null
	rm -f .ci-top.cxl

# ci is the continuous-integration gate (.github/workflows/ci.yml): vet,
# tier-1 build+test, a race pass over the fast-path and queue tests on both
# backends, the fast-path regression gate against the committed
# BENCH_fastpath.json, the mmap-backend suite, the bounded crash sweep (one
# leg with telemetry collection enabled), the cxltop/cxlsnap observer
# smoke, and the serving-tier chaos smoke on both worker backends.
ci: vet build test
	$(GO) test -race -run 'TestDeviceAccessBudget|TestQueue' ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run 'TestDeviceAccessBudget|TestQueue' ./internal/shm
	$(GO) test -race -run TestSlotChurn ./internal/shm
	CXLSHM_BACKEND=mmap $(GO) test -race -run TestSlotChurn ./internal/shm
	$(MAKE) bench-compare
	$(MAKE) test-mmap
	$(MAKE) sweep
	$(MAKE) corrupt
	$(GO) run ./cmd/faultsim -sweep -max-writes 8 -metrics
	$(GO) run ./cmd/faultsim -sweep -max-writes 6 -clients 64
	$(MAKE) top-smoke
	$(MAKE) fsck-smoke
	$(MAKE) serving-smoke

# serving-smoke drives the network-facing serving tier end to end on both
# worker backends: in-process workers on the heap pool, then real child OS
# processes attached to an mmap pool file — each run kills one worker
# mid-traffic, requires monitor-driven recovery plus metadata-only
# partition failover, and fails on any survivor error, lost write,
# corruption, or unclean fsck.
serving-smoke:
	$(GO) run ./cmd/cxlkv chaos -backend inproc -workers 3 -keys 20000 -conns 4 -ops 5000
	$(GO) run ./cmd/cxlkv chaos -backend proc -workers 3 -keys 20000 -conns 4 -ops 5000

# bench-serving runs the full serving chaos benchmark (child OS processes
# on an mmap pool file, zipfian traffic, one SIGKILL mid-stream) and
# (re)writes BENCH_serving.json in the repo root with provenance.
bench-serving:
	$(GO) run ./cmd/cxlkv chaos -backend proc -out BENCH_serving.json

# serving-compare re-runs the serving chaos benchmark and gates it against
# the committed BENCH_serving.json: the hard invariants (zero survivor
# errors, zero lost writes, zero corruptions, fsck clean) are absolute;
# latency and recovery-SLO gates allow 4x slack over the baseline because
# serving latencies are wall-clock and machine-local. After an intentional
# change, re-run `make bench-serving` and commit the new baseline.
serving-compare:
	$(GO) run ./cmd/cxlkv chaos -backend proc -compare BENCH_serving.json

bench:
	$(GO) test -run xxx -bench . -benchtime=1s .

# bench-fastpath measures ns/op and device loads/stores/CAS per fast-path
# operation and (re)writes BENCH_fastpath.json in the repo root, stamped
# with the build/geometry provenance that produced it.
bench-fastpath:
	$(GO) run ./cmd/cxlbench fastpath

# bench-scale measures the client-scaling curve (attach cost and per-client
# alloc/free device accesses at 1..256 attached clients) plus the 8-way
# concurrent-recovery comparison, and (re)writes BENCH_scale.json in the
# repo root with build/geometry provenance.
bench-scale:
	$(GO) run ./cmd/cxlbench scale

# bench-compare re-measures the fast paths and the client-scaling curve,
# failing when any operation's device accesses per op — or any per-client
# access count at any point of the scaling curve — regressed more than 10%
# against the committed BENCH_fastpath.json / BENCH_scale.json. Wall time
# is not compared (machine-local); the access counts are deterministic, so
# this is a sharp CI gate. After an intentional improvement, re-run
# `make bench-fastpath` / `make bench-scale` and commit the new baseline.
bench-compare:
	$(GO) run ./cmd/cxlbench fastpath-compare
	$(GO) run ./cmd/cxlbench scale-compare
	$(MAKE) serving-compare
