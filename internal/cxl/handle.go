package cxl

import "sync/atomic"

// Handle is one client's view of a Memory. It is the only path client code
// may use to access shared memory: RAS fencing, the latency model and access
// hooks are applied here. A Handle is owned by a single goroutine and is not
// goroutine-safe (matching the paper's one-client-per-thread model); the
// Memory underneath is fully concurrent.
//
// Dispatch is two-tier, so the heap fast path never pays interface calls:
// when the handle is opened directly on a *Device (or *MapDevice, or only
// handle-transparent middleware such as WithLatency is stacked above one),
// dev is set and Load/Store/CAS touch the word array with one bounds check
// and one sync/atomic op. Intercepting middleware (WithCounting,
// WithAccessHook) clears dev via retarget so every access flows through the
// interface path it observes.
type Handle struct {
	// mem is the full Memory stack accesses flow through when dev is nil.
	mem Memory
	// dev short-circuits to the concrete bottom device when no intercepting
	// middleware is stacked (devirtualized fast path).
	dev *Device
	cid int

	// fencedW points at this client's RAS fence word in the bottom device
	// (heap or mmap'd file). Fencing is device-authoritative, so the fast
	// check survives retargeting through middleware.
	fencedW *atomic.Uint32

	// lat, when set, applies the latency model (see Latency); installed by
	// the WithLatency middleware. cache models this client's CPU cache: a
	// small direct-mapped set of recently touched line addresses, consulted
	// only when lat is set.
	lat   *Latency
	cache lineCache

	// hook, when set, observes every access before it executes (installed
	// by WithAccessHook); it may panic to simulate a crash mid-operation.
	hook AccessHook

	// droppedWrites counts stores/CAS swallowed by the RAS fence.
	droppedWrites uint64
}

// Open creates a Handle for client cid. cid must be in [1, MaxClients].
func (d *Device) Open(cid int) *Handle {
	if cid <= 0 || cid >= len(d.fenced) {
		panic("cxl: Open with out-of-range client id")
	}
	return &Handle{
		mem:     d,
		dev:     d,
		cid:     cid,
		fencedW: &d.fenced[cid],
	}
}

// retarget reroutes the handle's data path through m, an intercepting
// middleware layer: dev is cleared so every Load/Store/CAS goes through m.
// The fence word stays wired to the bottom device (fencing remains
// device-authoritative). Any handle-level hook installed by a layer below m
// is cleared: that layer now sees the retargeted traffic at the device
// plane, and keeping the handle hook too would fire it twice.
// Hook layers stacked above m set their hook after this runs and keep it.
func (h *Handle) retarget(m Memory) *Handle {
	h.mem = m
	h.dev = nil
	h.hook = nil
	return h
}

// setLatency installs the latency profile (WithLatency middleware).
func (h *Handle) setLatency(l Latency) *Handle {
	if l != (Latency{}) {
		h.lat = &l
	}
	return h
}

// setHook installs an access hook (WithAccessHook middleware). Multiple
// hooks chain, innermost first.
func (h *Handle) setHook(hook AccessHook) *Handle {
	if prev := h.hook; prev != nil {
		h.hook = func(cid int, kind AccessKind, a Addr) {
			prev(cid, kind, a)
			hook(cid, kind, a)
		}
	} else {
		h.hook = hook
	}
	return h
}

// Fenced reports whether this handle's client has been RAS-fenced.
func (h *Handle) Fenced() bool {
	if w := h.fencedW; w != nil {
		return w.Load() != 0
	}
	return h.mem.ClientFenced(h.cid)
}

// DroppedWrites reports how many stores/CAS were swallowed by the fence.
func (h *Handle) DroppedWrites() uint64 { return h.droppedWrites }

// Load atomically reads the word at a.
func (h *Handle) Load(a Addr) uint64 {
	if h.hook != nil {
		h.hook(h.cid, OpLoad, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, false)
	}
	if d := h.dev; d != nil {
		d.check(a)
		return atomic.LoadUint64(&d.words[a])
	}
	return h.mem.Load(a)
}

// Store atomically writes v at a. If the client is fenced the write is
// silently dropped, exactly as a RAS-isolated node's writes never reach the
// device.
func (h *Handle) Store(a Addr, v uint64) {
	d := h.dev
	if d != nil {
		d.check(a)
	}
	if h.Fenced() {
		h.droppedWrites++
		return
	}
	if h.hook != nil {
		h.hook(h.cid, OpStore, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, false)
	}
	if d != nil {
		atomic.StoreUint64(&d.words[a], v)
		return
	}
	h.mem.Store(a, v)
}

// CAS atomically compares-and-swaps the word at a. Returns false without
// touching memory if the client is fenced.
func (h *Handle) CAS(a Addr, old, new uint64) bool {
	d := h.dev
	if d != nil {
		d.check(a)
	}
	if h.Fenced() {
		h.droppedWrites++
		return false
	}
	if h.hook != nil {
		h.hook(h.cid, OpCAS, a)
	}
	if h.lat != nil {
		h.chargeAccess(a, true)
	}
	if d != nil {
		return atomic.CompareAndSwapUint64(&d.words[a], old, new)
	}
	return h.mem.CAS(a, old, new)
}

// SFence orders the client's preceding stores before its subsequent ones,
// modelling the sfence the paper inserts in the allocation fast path. With
// Go atomics every access is already sequentially consistent, so the fence
// only charges the modelled latency and reaches intercepting middleware.
// The Figure 7 breakdown counts fences at the client (obs.CtrFence).
func (h *Handle) SFence() {
	if h.hook != nil {
		h.hook(h.cid, OpFence, 0)
	}
	if h.lat != nil && h.lat.FenceNS > 0 {
		h.lat.charge(h.lat.FenceNS)
	}
	if h.dev == nil {
		h.mem.Fence()
	}
}

// Flush models a CLWB of the cache line containing a, persisting it to the
// device (needed on the paper's CXL 2.0 platform; see §6.1). Like SFence it
// only charges the modelled latency and reaches intercepting middleware.
func (h *Handle) Flush(a Addr) {
	if h.hook != nil {
		h.hook(h.cid, OpFlush, a)
	}
	if h.lat != nil && h.lat.FlushNS > 0 {
		h.lat.charge(h.lat.FlushNS)
	}
	if h.dev == nil {
		h.mem.Flush(a)
	}
}

// chargeAccess applies the latency model for one word access.
func (h *Handle) chargeAccess(a Addr, cas bool) {
	lat := h.lat
	if !lat.enabled() {
		return
	}
	if cas {
		if lat.CASNS > 0 {
			lat.charge(lat.CASNS)
		}
		// CAS invalidates the line everywhere; drop it from our cache too.
		h.cache.invalidate(a)
		return
	}
	if h.cache.touch(a) {
		return // modelled cache hit: free
	}
	if lat.MissNS > 0 {
		lat.charge(lat.MissNS)
	}
}

// ReadBytes copies n bytes starting at byte offset off within the object at
// word address a into p. Word loads are atomic; byte extraction is
// little-endian, matching how a real CXL device presents memory to x86
// hosts. Whole interior words are read with a single load.
func (h *Handle) ReadBytes(a Addr, off int, p []byte) {
	i := 0
	for i < len(p) {
		byteIdx := off + i
		wordOff := byteIdx % WordBytes
		wa := a + Addr(byteIdx/WordBytes)
		w := h.Load(wa)
		if wordOff == 0 && len(p)-i >= WordBytes {
			// Full-word fast path.
			for k := 0; k < WordBytes; k++ {
				p[i+k] = byte(w >> (8 * k))
			}
			i += WordBytes
			continue
		}
		n := WordBytes - wordOff
		if n > len(p)-i {
			n = len(p) - i
		}
		for k := 0; k < n; k++ {
			p[i+k] = byte(w >> (8 * (wordOff + k)))
		}
		i += n
	}
}

// WriteBytes stores p at byte offset off within the object at word address
// a. Whole interior words are written with single stores; partial edge words
// use read-modify-write (non-atomic with respect to concurrent writers of
// the same word, exactly like real shared memory).
func (h *Handle) WriteBytes(a Addr, off int, p []byte) {
	i := 0
	for i < len(p) {
		byteIdx := off + i
		wordOff := byteIdx % WordBytes
		wa := a + Addr(byteIdx/WordBytes)
		if wordOff == 0 && len(p)-i >= WordBytes {
			// Full-word fast path.
			var w uint64
			for k := 0; k < WordBytes; k++ {
				w |= uint64(p[i+k]) << (8 * k)
			}
			h.Store(wa, w)
			i += WordBytes
			continue
		}
		// Partial word: read-modify-write.
		w := h.Load(wa)
		n := WordBytes - wordOff
		if n > len(p)-i {
			n = len(p) - i
		}
		for k := 0; k < n; k++ {
			shift := 8 * (wordOff + k)
			w &^= uint64(0xff) << shift
			w |= uint64(p[i+k]) << shift
		}
		h.Store(wa, w)
		i += n
	}
}
