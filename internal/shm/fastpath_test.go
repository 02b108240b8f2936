package shm_test

import (
	"math/rand"
	"testing"

	"repro/internal/cxl"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/shm"
)

// Access-budget regression tests: the fast-path overhaul's gains are counted
// in device words touched per operation, so they are pinned here as budgets.
// The budgets carry a little slack over the measured steady state (malloc
// ≈7.2, free ≈10, send+receive+release 34, batched trio ≈23 at the time of
// writing — after deferred publication, the reference shadow caches, and the
// CAS-free receive move) to absorb incidental slow-path amortization, but
// sit far below the previous generation's costs (malloc ≈10.1, free 22,
// trio 57) — a regression that reintroduces per-op metadata traffic trips
// them immediately.

func newCountingPool(t *testing.T) (*shm.Pool, *cxl.AccessCounter) {
	t.Helper()
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
		t.Fatalf("NewPool: %v", err)
	}
	return p, ctr
}

func TestDeviceAccessBudget(t *testing.T) {
	p, ctr := newCountingPool(t)
	c := connect(t, p)
	const n = 4000
	roots := make([]layout.Addr, 0, n)
	// Warm up so page claiming amortizes out of the measured window.
	for i := 0; i < 256; i++ {
		r, _, err := c.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, r)
	}
	for _, r := range roots {
		if _, err := c.ReleaseRoot(r); err != nil {
			t.Fatal(err)
		}
	}
	roots = roots[:0]

	perOp := func(f func()) float64 {
		ctr.Reset()
		f()
		s := ctr.Snapshot()
		return float64(s.Loads+s.Stores+s.CASes) / n
	}

	mallocCost := perOp(func() {
		for i := 0; i < n; i++ {
			r, _, err := c.Malloc(64, 0)
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, r)
		}
	})
	freeCost := perOp(func() {
		for _, r := range roots {
			if _, err := c.ReleaseRoot(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if mallocCost > 10 {
		t.Errorf("malloc touches %.2f device words/op, budget 10", mallocCost)
	}
	if freeCost > 12 {
		t.Errorf("free touches %.2f device words/op, budget 12", freeCost)
	}
	if pair := mallocCost + freeCost; pair > 20 {
		t.Errorf("malloc+free pair touches %.2f device words, budget 20", pair)
	}

	snd := connect(t, p)
	rcv := connect(t, p)
	_, q, err := snd.CreateQueue(rcv.ID(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	_, obj, err := snd.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	trioCost := perOp(func() {
		for i := 0; i < n; i++ {
			if err := snd.Send(q, obj); err != nil {
				t.Fatal(err)
			}
			root, _, err := rcv.Receive(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rcv.ReleaseRoot(root); err != nil {
				t.Fatal(err)
			}
		}
	})
	if trioCost > 38 {
		t.Errorf("send+receive+release touches %.2f device words, budget 38", trioCost)
	}

	// Batched trio (same shape as the benchmark's batch row): SendBatch and
	// ReceiveBatch amortize the tail/head stores across the batch, and the
	// batch's receive moves all close under one era bump.
	const batch = 40 // queue capacity is 64
	targets := make([]layout.Addr, batch)
	for i := range targets {
		targets[i] = obj
	}
	batchCost := perOp(func() {
		for i := 0; i < n/batch; i++ {
			if sent, err := snd.SendBatch(q, targets); err != nil || sent != batch {
				t.Fatalf("SendBatch: sent %d, err %v", sent, err)
			}
			broots, _, err := rcv.ReceiveBatch(q, batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range broots {
				if _, err := rcv.ReleaseRoot(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}) * float64(n) / float64(n/batch*batch) // perOp divides by n; renormalize to items
	if batchCost > 27 {
		t.Errorf("batched trio touches %.2f device words/item, budget 27", batchCost)
	}
}

// TestShadowCoherentAfterWorkload drives a mixed workload — allocation in
// several size classes, frees in shuffled order, cross-client frees through
// the deferred list, embedded attach/release, and queue traffic — then
// verifies every client's shadow word-for-word against the device.
func TestShadowCoherentAfterWorkload(t *testing.T) {
	p := newTestPool(t)
	a := connect(t, p)
	b := connect(t, p)
	rng := rand.New(rand.NewSource(7))

	type held struct{ root, block layout.Addr }
	var live []held
	for i := 0; i < 3000; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) != 0:
			size := []int{16, 64, 256, 900}[rng.Intn(4)]
			root, block, err := a.Malloc(size, 0)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, held{root, block})
		default:
			j := rng.Intn(len(live))
			h := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if rng.Intn(2) == 0 {
				// Cross-client release path: b attaches, a drops its root,
				// then b's release defers the free onto a's client_free list.
				broot, err := b.AttachRoot(h.block)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.ReleaseRoot(h.root); err != nil {
					t.Fatal(err)
				}
				if _, err := b.ReleaseRoot(broot); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := a.ReleaseRoot(h.root); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Queue traffic between the two clients.
	_, q, err := a.CreateQueue(b.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenQueue(q); err != nil {
		t.Fatal(err)
	}
	_, obj, err := a.Malloc(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := a.Send(q, obj); err != nil {
			t.Fatal(err)
		}
		root, _, err := b.Receive(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range live {
		if _, err := a.ReleaseRoot(h.root); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckShadow(); err != nil {
		t.Errorf("client a: %v", err)
	}
	if err := b.CheckShadow(); err != nil {
		t.Errorf("client b: %v", err)
	}
	mustValidate(t, p)
}

func TestQueueBatchRoundTrip(t *testing.T) {
	p := newTestPool(t)
	s := connect(t, p)
	r := connect(t, p)
	_, q, err := s.CreateQueue(r.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.OpenQueue(q); err != nil {
		t.Fatal(err)
	}

	var targets []layout.Addr
	var sroots []layout.Addr
	for i := 0; i < 12; i++ {
		root, block, err := s.Malloc(64, 0)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, block)
		sroots = append(sroots, root)
	}

	// Capacity 8: a 12-target batch must send exactly 8, no error.
	sent, err := s.SendBatch(q, targets)
	if err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if sent != 8 {
		t.Fatalf("sent %d, want 8 (capacity-limited)", sent)
	}
	if _, err := s.SendBatch(q, targets[sent:]); err != shm.ErrQueueFull {
		t.Fatalf("SendBatch on full queue: %v, want ErrQueueFull", err)
	}

	roots, got, err := r.ReceiveBatch(q, 16)
	if err != nil {
		t.Fatalf("ReceiveBatch: %v", err)
	}
	if len(got) != 8 {
		t.Fatalf("received %d, want 8", len(got))
	}
	for i, g := range got {
		if g != targets[i] {
			t.Fatalf("slot %d: got %#x, want %#x (FIFO order)", i, g, targets[i])
		}
	}
	if _, _, err := r.ReceiveBatch(q, 4); err != shm.ErrQueueEmpty {
		t.Fatalf("ReceiveBatch on empty queue: %v, want ErrQueueEmpty", err)
	}
	if n := r.Metrics().Get(obs.CtrQueueStaleSlot); n != 0 {
		t.Fatalf("clean run counted %d stale slots", n)
	}

	// The drained remainder goes through in a second batch.
	if sent, err = s.SendBatch(q, targets[8:]); err != nil || sent != 4 {
		t.Fatalf("second SendBatch: sent %d, err %v", sent, err)
	}
	roots2, got2, err := r.ReceiveBatch(q, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 4 || got2[0] != targets[8] {
		t.Fatalf("second batch: %d items, first %#x", len(got2), got2[0])
	}

	// Release receiver-side then sender-side roots; everything must come back.
	for _, root := range roots {
		if _, err := r.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	for _, root := range roots2 {
		if _, err := r.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	for _, root := range sroots {
		if _, err := s.ReleaseRoot(root); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckShadow(); err != nil {
		t.Errorf("sender shadow: %v", err)
	}
	if err := r.CheckShadow(); err != nil {
		t.Errorf("receiver shadow: %v", err)
	}
	mustValidate(t, p)
}
