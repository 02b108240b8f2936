package cxl

import (
	"testing"
	"time"
)

func TestWrapOrderAndBottom(t *testing.T) {
	d := newTestDevice(t, 64)
	var ctr AccessCounter
	m := Wrap(d, WithLatency(Latency{MissNS: 1}), WithCounting(&ctr))
	// Last middleware is outermost.
	if _, ok := m.(*countingMem); !ok {
		t.Fatalf("outermost layer is %T, want *countingMem", m)
	}
	if Bottom(m) != Memory(d) {
		t.Fatal("Bottom must unwrap to the backing device")
	}
	if Bottom(Memory(d)) != Memory(d) {
		t.Fatal("Bottom of a bare device is the device")
	}
	if m.Words() != 64 || m.MaxClients() != d.MaxClients() {
		t.Fatal("passthrough must preserve geometry")
	}
}

func TestWithCountingObservesEverything(t *testing.T) {
	d := newTestDevice(t, 64)
	var ctr AccessCounter
	m := Wrap(d, WithCounting(&ctr))

	// Management-plane accesses.
	m.Store(1, 7)
	if m.Load(1) != 7 {
		t.Fatal("load through counting layer")
	}
	m.CAS(1, 7, 9)
	m.Flush(1)
	m.Fence()

	// Client accesses: handles are retargeted onto the interface path.
	h := m.Open(1)
	h.Store(2, 1)
	h.Load(2)
	h.CAS(2, 1, 2)

	s := ctr.Snapshot()
	if s.Loads != 2 || s.Stores != 2 || s.CASes != 2 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("counter = %+v, want 2/2/2/1/1", s)
	}
	ctr.Reset()
	if s := ctr.Snapshot(); s != (Stats{}) {
		t.Fatalf("after reset = %+v", s)
	}
}

// checkAccessCounting counts one client access of each kind on d through
// WithCounting, then resets the counter. TestStatsAccounting runs it on the
// heap backend and TestMapDeviceStats on the mmap backend.
func checkAccessCounting(t *testing.T, d Memory) {
	t.Helper()
	var ctr AccessCounter
	h := Wrap(d, WithCounting(&ctr)).Open(1)
	h.Store(1, 1)
	h.Load(1)
	h.CAS(1, 1, 2)
	h.Flush(1)
	h.SFence()
	if s := ctr.Snapshot(); s != (Stats{Loads: 1, Stores: 1, CASes: 1, Flushes: 1, Fences: 1}) {
		t.Fatalf("counter = %+v, want one of each", s)
	}
	ctr.Reset()
	if s := ctr.Snapshot(); s != (Stats{}) {
		t.Fatalf("after reset = %+v, want zero", s)
	}
}

func TestWithCountingPreservesFencing(t *testing.T) {
	d := newTestDevice(t, 64)
	var ctr AccessCounter
	m := Wrap(d, WithCounting(&ctr))
	h := m.Open(3)
	h.Store(4, 42)
	m.FenceClient(3)
	if !h.Fenced() {
		t.Fatal("retargeted handle must observe the fence")
	}
	h.Store(4, 99)
	if h.CAS(4, 42, 99) {
		t.Fatal("fenced CAS must fail through the interface path")
	}
	if d.Load(4) != 42 {
		t.Fatalf("fenced store leaked: %d", d.Load(4))
	}
	if h.DroppedWrites() != 2 {
		t.Fatalf("dropped = %d, want 2", h.DroppedWrites())
	}
	// The writes the fence dropped never reach the counter.
	if s := ctr.Snapshot(); s.Stores != 1 || s.CASes != 0 {
		t.Fatalf("counter = %+v, want 1 store and 0 CAS", s)
	}
}

func TestWithLatencyIsHandleTransparent(t *testing.T) {
	d := newTestDevice(t, 1<<14)
	m := Wrap(d, WithLatency(Latency{MissNS: 2000}))
	// Management plane stays uncharged.
	t0 := time.Now()
	for i := 0; i < 64; i++ {
		m.Load(Addr(1 + i*8))
	}
	if el := time.Since(t0); el > 50*time.Microsecond {
		t.Fatalf("management-plane loads charged latency (%v)", el)
	}
	// Client path is charged.
	h := m.Open(1)
	t0 = time.Now()
	h.Load(8)
	if el := time.Since(t0); el < 1500*time.Nanosecond {
		t.Fatalf("client miss charged only %v, want ~2µs", el)
	}
	// Handle keeps the concrete fast path (no retarget).
	if h.dev == nil {
		t.Fatal("latency layer must not retarget the handle off the fast path")
	}
}

func TestWithAccessHookCarriesClientID(t *testing.T) {
	d := newTestDevice(t, 64)
	type access struct {
		cid  int
		kind AccessKind
		a    Addr
	}
	var got []access
	m := Wrap(d, WithAccessHook(func(cid int, kind AccessKind, a Addr) {
		got = append(got, access{cid, kind, a})
	}))

	m.Store(1, 5) // management plane: cid 0
	h := m.Open(7)
	h.Load(1)
	h.CAS(1, 5, 6)
	h.Flush(1)
	h.SFence()

	want := []access{
		{0, OpStore, 1},
		{7, OpLoad, 1},
		{7, OpCAS, 1},
		{7, OpFlush, 1},
		{7, OpFence, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWithAccessHookCanCrash(t *testing.T) {
	d := newTestDevice(t, 64)
	type boom struct{}
	n := 0
	m := Wrap(d, WithAccessHook(func(cid int, kind AccessKind, a Addr) {
		n++
		if n == 3 {
			panic(boom{})
		}
	}))
	h := m.Open(1)
	func() {
		defer func() {
			if _, ok := recover().(boom); !ok {
				t.Fatal("expected the hook's panic to propagate")
			}
		}()
		for i := 0; i < 10; i++ {
			h.Store(Addr(1+i), 1)
		}
	}()
	// The crashed access must not have landed.
	if d.Load(3) != 0 {
		t.Fatal("access executed despite hook panic")
	}
	if d.Load(2) != 1 {
		t.Fatal("pre-crash accesses must have landed")
	}
}

func TestStackedMiddleware(t *testing.T) {
	d := newTestDevice(t, 1<<10)
	var ctr AccessCounter
	hooks := 0
	m := Wrap(d,
		WithAccessHook(func(int, AccessKind, Addr) { hooks++ }),
		WithCounting(&ctr),
	)
	h := m.Open(2)
	h.Store(5, 1)
	h.Load(5)
	if ctr.Snapshot().Stores != 1 || ctr.Snapshot().Loads != 1 {
		t.Fatalf("counting layer missed accesses: %+v", ctr.Snapshot())
	}
	if hooks != 2 {
		t.Fatalf("hook fired %d times, want 2", hooks)
	}
	if Bottom(m) != Memory(d) {
		t.Fatal("Bottom through two layers")
	}
}

func TestAccessKindString(t *testing.T) {
	for k, want := range map[AccessKind]string{
		OpLoad: "load", OpStore: "store", OpCAS: "cas",
		OpFlush: "flush", OpFence: "fence", AccessKind(99): "?",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
