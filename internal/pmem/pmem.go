// Package pmem implements a Ralloc-style persistent-memory allocator: the
// recovery baseline of the paper's §6.2.1 and one of the Figure 6
// comparison lines.
//
// Like Ralloc (Cai et al., ISMM'20), it keeps allocation metadata (free
// lists, thread caches) in volatile memory for speed; only block headers
// and a root table live in the "persistent" arena. After a crash, nothing
// about free space survives, so recovery is a stop-the-world conservative
// garbage collection: mark every block reachable from the roots (treating
// every word as a potential pointer), then sweep the entire heap to rebuild
// free lists. Recovery cost is therefore proportional to the heap size —
// the property CXL-SHM's per-object reference counting avoids (its recovery
// is proportional to the references the failed client held).
package pmem

import (
	"fmt"
	"sync"
	"time"
)

// spin busy-waits approximately ns nanoseconds (models pwb/pfence costs).
func spin(ns int) {
	if ns <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < time.Duration(ns) {
	}
}

// Addr is a word offset into the heap arena; 0 is nil.
type Addr = uint64

const (
	hdrAllocBit = uint64(1) << 63
	hdrMarkBit  = uint64(1) << 62
	hdrSizeMask = uint64(1)<<40 - 1
	headerWords = 1
	// extentWords is how much a thread carves from the global frontier at a
	// time (slow path under the heap mutex).
	extentWords = 2048
	numClasses  = 16
	classGrain  = 8 // words
	// MaxRoots is the size of the persistent root table.
	MaxRoots = 64
)

// Heap is a simulated persistent heap.
type Heap struct {
	mu    sync.Mutex
	words []uint64
	// frontier is the bump pointer for carving fresh extents (word index).
	frontier uint64
	// roots is the persistent root table (region [1, 1+MaxRoots)).
	// persistNS models the pwb+pfence cost a real pmem allocator pays to
	// persist each header update (0 = free, as on DRAM).
	persistNS int
	// Volatile state (lost on crash, rebuilt by Recover):
	shared [numClasses][]Addr // overflow free lists
}

// NewHeap creates a heap of the given size in bytes.
func NewHeap(bytes int) (*Heap, error) {
	words := bytes / 8
	if words < extentWords*2 {
		return nil, fmt.Errorf("pmem: heap of %d bytes too small", bytes)
	}
	h := &Heap{words: make([]uint64, words)}
	h.frontier = 1 + MaxRoots // word 0 nil, then the root table
	return h, nil
}

// Name implements alloc.Allocator.
func (h *Heap) Name() string { return "ralloc*" }

// SetPersistCost charges ns nanoseconds per header persist on the alloc and
// free paths, modelling a real persistent-memory medium. Without it, a
// word-array free-list allocator on DRAM is unrealistically fast compared
// to the Ralloc-on-Optane baseline the paper measures against.
func (h *Heap) SetPersistCost(ns int) { h.persistNS = ns }

func classFor(dataWords uint64) int {
	c := int((dataWords + classGrain - 1) / classGrain)
	if c < 1 {
		c = 1
	}
	if c > numClasses {
		return -1
	}
	return c - 1
}

func classWords(c int) uint64 { return uint64(c+1) * classGrain }

// Ctx is a per-thread allocation context. Its free-list caches are
// volatile: a crash discards them and Recover rebuilds free space.
type Ctx struct {
	h     *Heap
	local [numClasses][]Addr
	// extent is the thread's private bump region [cur, end).
	cur, end uint64
}

// NewThread creates a thread context (alloc.Allocator interface; also
// usable directly).
func (h *Heap) NewThread() (*Ctx, error) { return &Ctx{h: h}, nil }

// header reads/writes use plain (non-atomic) access: the heap contract is
// single-writer per block plus a global mutex on the carve path, and
// recovery is stop-the-world — matching a real pmem allocator's memory
// model rather than the CXL coherence model.

// Alloc allocates size bytes and returns the block's address.
func (c *Ctx) Alloc(size int) (Addr, error) {
	if size <= 0 {
		size = 1
	}
	dataWords := uint64((size + 7) / 8)
	cl := classFor(dataWords)
	if cl < 0 {
		return 0, fmt.Errorf("pmem: object of %d bytes exceeds largest class", size)
	}
	bw := headerWords + classWords(cl)

	// Fast path: thread-local free list.
	if n := len(c.local[cl]); n > 0 {
		a := c.local[cl][n-1]
		c.local[cl] = c.local[cl][:n-1]
		c.h.words[a] = hdrAllocBit | bw
		spin(c.h.persistNS)
		return a, nil
	}
	// Shared free list.
	c.h.mu.Lock()
	if n := len(c.h.shared[cl]); n > 0 {
		a := c.h.shared[cl][n-1]
		c.h.shared[cl] = c.h.shared[cl][:n-1]
		c.h.mu.Unlock()
		c.h.words[a] = hdrAllocBit | bw
		return a, nil
	}
	c.h.mu.Unlock()
	// Bump path.
	if c.cur+bw > c.end {
		if err := c.carve(); err != nil {
			return 0, err
		}
		if c.cur+bw > c.end {
			return 0, fmt.Errorf("pmem: heap exhausted")
		}
	}
	a := c.cur
	c.cur += bw
	if c.cur < c.end {
		// Keep the heap linearly parsable: the remainder of the extent is a
		// free filler block.
		c.h.words[c.cur] = c.end - c.cur
	}
	c.h.words[a] = hdrAllocBit | bw
	spin(c.h.persistNS)
	return a, nil
}

// carve takes a fresh extent from the global frontier.
func (c *Ctx) carve() error {
	h := c.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.frontier+extentWords > uint64(len(h.words)) {
		return fmt.Errorf("pmem: heap exhausted")
	}
	c.cur = h.frontier
	c.end = h.frontier + extentWords
	h.frontier = c.end
	h.words[c.cur] = extentWords // filler header over the whole extent
	return nil
}

// Free returns a block to the thread's cache.
func (c *Ctx) Free(a Addr) error {
	hdr := c.h.words[a]
	if hdr&hdrAllocBit == 0 {
		return fmt.Errorf("pmem: double free at %#x", a)
	}
	bw := hdr & hdrSizeMask
	cl := classFor(bw - headerWords)
	if cl < 0 {
		return fmt.Errorf("pmem: corrupt header at %#x", a)
	}
	c.h.words[a] = bw // clear allocated bit, keep size
	spin(c.h.persistNS)
	c.local[cl] = append(c.local[cl], a)
	return nil
}

// Data returns the block's data words (for building linked structures whose
// pointers the conservative GC must trace).
func (h *Heap) Data(a Addr) []uint64 {
	bw := h.words[a] & hdrSizeMask
	return h.words[a+headerWords : a+bw]
}

// SetRoot records a root object in the persistent root table.
func (h *Heap) SetRoot(i int, a Addr) error {
	if i < 0 || i >= MaxRoots {
		return fmt.Errorf("pmem: root index %d out of range", i)
	}
	h.words[1+uint64(i)] = a
	return nil
}

// Root reads root i.
func (h *Heap) Root(i int) Addr { return h.words[1+uint64(i)] }

// RecoveryStats describes one stop-the-world recovery.
type RecoveryStats struct {
	Duration     time.Duration
	BlocksTotal  int // blocks walked (entire heap)
	BlocksLive   int // reachable from roots
	BlocksSwept  int // unreachable allocated blocks reclaimed
	WordsScanned int // words examined by the conservative mark phase
}

// Recover performs the crash-recovery garbage collection: a full
// stop-the-world conservative mark-sweep over the entire heap. All thread
// contexts must be discarded before calling (their caches are gone — that
// is the crash); new ones are created afterwards.
func (h *Heap) Recover() RecoveryStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	start := time.Now()
	var st RecoveryStats

	// Pass 1: index block starts and clear marks. The heap is linearly
	// parsable thanks to filler headers.
	starts := make(map[Addr]uint64) // block start -> size
	for a := uint64(1 + MaxRoots); a < h.frontier; {
		hdr := h.words[a]
		bw := hdr & hdrSizeMask
		if bw == 0 || a+bw > h.frontier {
			break // torn frontier block: everything past it is unreachable free space
		}
		h.words[a] = hdr &^ hdrMarkBit
		if hdr&hdrAllocBit != 0 {
			starts[a] = bw
		}
		st.BlocksTotal++
		a += bw
	}

	// Pass 2: conservative mark from the root table.
	var stack []Addr
	for i := 0; i < MaxRoots; i++ {
		if r := h.Root(i); r != 0 {
			if _, ok := starts[r]; ok {
				stack = append(stack, r)
			}
		}
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		hdr := h.words[a]
		if hdr&hdrMarkBit != 0 {
			continue
		}
		h.words[a] = hdr | hdrMarkBit
		st.BlocksLive++
		bw := hdr & hdrSizeMask
		for w := a + headerWords; w < a+bw; w++ {
			st.WordsScanned++
			v := h.words[w]
			if _, ok := starts[v]; ok {
				stack = append(stack, v)
			}
		}
	}

	// Pass 3: sweep — rebuild the shared free lists from scratch.
	for cl := range h.shared {
		h.shared[cl] = h.shared[cl][:0]
	}
	for a := uint64(1 + MaxRoots); a < h.frontier; {
		hdr := h.words[a]
		bw := hdr & hdrSizeMask
		if bw == 0 || a+bw > h.frontier {
			break
		}
		if hdr&hdrAllocBit != 0 && hdr&hdrMarkBit == 0 {
			if cl := classFor(bw - headerWords); cl >= 0 {
				h.words[a] = bw
				h.shared[cl] = append(h.shared[cl], a)
				st.BlocksSwept++
			}
		} else if hdr&hdrAllocBit != 0 {
			h.words[a] = hdr &^ hdrMarkBit // keep live, drop mark
		} else if cl := classFor(bw - headerWords); cl >= 0 && bw == headerWords+classWords(cl) {
			// A freed class block whose list entry was lost with the crash.
			h.shared[cl] = append(h.shared[cl], a)
		}
		a += bw
	}
	st.Duration = time.Since(start)
	return st
}
