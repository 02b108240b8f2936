package cxl

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"unsafe"
)

// MapDevice is a shared memory pool whose word array, RAS fence flags and
// header live in an mmap'd file. This is the realistic software stand-in
// for CXL shared memory today (Xu et al.: mmap-based shared files are
// "barely distributed and almost persistent"): a pool created by one OS
// process can be reopened — alive, no copy — by another, because the
// device's failure domain is the file, not any process that maps it.
//
// MapDevice embeds Device, so the entire data path (atomic word access,
// RAS fencing, Handle fast path) is byte-for-byte the same code as the heap
// backend; only the storage the slices view differs. Two
// processes mapping the same file share one cache-coherent word array and
// one set of fence flags, so a recovery service in a fresh process can
// fence and recover the clients of a dead one.
//
// File layout (little-endian):
//
//	byte 0    magic "CXLMMAP1"
//	byte 8    file format version
//	byte 16   pool size in words
//	byte 24   device MaxClients
//	byte 32   header size in bytes
//	byte 64   RAS fence flags: (MaxClients+1) uint32 words
//	...       (header padded to a page multiple)
//	byte hdr  word array: words × 8 bytes
type MapDevice struct {
	Device
	data []byte
	path string
}

// MapDevice implements Memory.
var _ Memory = (*MapDevice)(nil)

const (
	mapMagic         = 0x3150414d4d4c5843 // "CXLMMAP1" little-endian
	mapFormatVersion = 1
	// mapFencedOff is the byte offset of the fence-flag array.
	mapFencedOff = 64
	// mapPage is the header alignment; mmap offsets are page-granular.
	mapPage = 4096
)

// Compile-time guarantees that the unsafe file views below are sound.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(atomic.Uint32{})-4]
	_ = [1]struct{}{}[unsafe.Alignof(atomic.Uint32{})-4]
)

// mapHeaderBytes computes the (page-aligned) header size for a client count.
func mapHeaderBytes(maxClients int) int {
	n := mapFencedOff + 4*(maxClients+1)
	return (n + mapPage - 1) &^ (mapPage - 1)
}

// CreateMapDevice creates the file at path and formats it as an empty,
// all-zero pool of cfg.Words words. It fails if the file already exists:
// clobbering a live pool is never recoverable, so callers must remove an
// old pool explicitly.
func CreateMapDevice(path string, cfg Config) (*MapDevice, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cxl: create pool file: %w", err)
	}
	hdr := mapHeaderBytes(cfg.MaxClients)
	size := int64(hdr) + int64(cfg.Words)*WordBytes
	if err := f.Truncate(size); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("cxl: size pool file to %d bytes: %w", size, err)
	}
	data, err := mmapFile(f, int(size))
	// The mapping keeps the file contents reachable; the descriptor is not
	// needed past this point (msync works on the address range), and
	// holding it would leak descriptors in pool-per-trial campaigns.
	f.Close()
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	binary.LittleEndian.PutUint64(data[0:], mapMagic)
	binary.LittleEndian.PutUint64(data[8:], mapFormatVersion)
	binary.LittleEndian.PutUint64(data[16:], uint64(cfg.Words))
	binary.LittleEndian.PutUint64(data[24:], uint64(cfg.MaxClients))
	binary.LittleEndian.PutUint64(data[32:], uint64(hdr))
	return newMapDevice(path, data, cfg.Words, cfg.MaxClients, hdr), nil
}

// OpenMapDevice maps an existing pool file. The pool comes back exactly as
// the last process left it — including fence flags and any clients that
// died holding references; attach it with shm.AttachMemory and run
// recovery on the stale clients.
func OpenMapDevice(path string) (*MapDevice, error) {
	return openMapDevice(path, false)
}

// OpenMapDeviceReadOnly maps an existing pool file PROT_READ and wraps it
// read-only: loads observe the live pool (other processes' stores included)
// but any store, CAS, fence or Handle open panics — and even a bug that
// bypassed the wrapper would take a SIGSEGV from the MMU, not corrupt the
// pool. This is the attach path for observers (cxltop, cxlsnap -metrics).
func OpenMapDeviceReadOnly(path string) (Memory, error) {
	md, err := openMapDevice(path, true)
	if err != nil {
		return nil, err
	}
	return &ReadOnlyDevice{md}, nil
}

func openMapDevice(path string, readOnly bool) (*MapDevice, error) {
	flag := os.O_RDWR
	if readOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, fmt.Errorf("cxl: open pool file: %w", err)
	}
	var hdrBuf [40]byte
	if _, err := f.ReadAt(hdrBuf[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: read pool header: %w", path, err)
	}
	if got := binary.LittleEndian.Uint64(hdrBuf[0:]); got != mapMagic {
		f.Close()
		return nil, fmt.Errorf("cxl: %s is not a CXL-SHM pool file (magic %#x)", path, got)
	}
	if v := binary.LittleEndian.Uint64(hdrBuf[8:]); v != mapFormatVersion {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: pool file format version %d, this build reads version %d",
			path, v, mapFormatVersion)
	}
	words := binary.LittleEndian.Uint64(hdrBuf[16:])
	maxClients := binary.LittleEndian.Uint64(hdrBuf[24:])
	hdr := binary.LittleEndian.Uint64(hdrBuf[32:])
	if words == 0 || words > 1<<40 || maxClients == 0 || maxClients > 1<<20 {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: implausible pool header (words %d, clients %d)",
			path, words, maxClients)
	}
	if want := mapHeaderBytes(int(maxClients)); hdr != uint64(want) {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: header size %d does not match %d clients (want %d)",
			path, hdr, maxClients, want)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := int64(hdr) + int64(words)*WordBytes
	if st.Size() != size {
		f.Close()
		return nil, fmt.Errorf("cxl: %s: file is %d bytes, header computes %d (truncated or corrupt)",
			path, st.Size(), size)
	}
	mapFn := mmapFile
	if readOnly {
		mapFn = mmapFileReadOnly
	}
	data, err := mapFn(f, int(size))
	f.Close()
	if err != nil {
		return nil, err
	}
	return newMapDevice(path, data, int(words), int(maxClients), int(hdr)), nil
}

// NewAnonMapDevice creates a MapDevice backed by an unlinked temporary
// file: it behaves exactly like a named pool file (same mapping, same data
// path) but leaves nothing on disk once closed. Used to run the whole
// stack's test suite and fault campaigns over the mmap backend.
func NewAnonMapDevice(cfg Config) (*MapDevice, error) {
	dir := os.TempDir()
	f, err := os.CreateTemp(dir, "cxlshm-*.pool")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	os.Remove(path)
	md, err := CreateMapDevice(filepath.Join(dir, filepath.Base(path)), cfg)
	if err != nil {
		return nil, err
	}
	// Unlink immediately: the mapping keeps the storage alive.
	os.Remove(md.path)
	return md, nil
}

// newMapDevice builds the device views over the mapping.
func newMapDevice(path string, data []byte, words, maxClients, hdr int) *MapDevice {
	md := &MapDevice{data: data, path: path}
	w := unsafe.Slice((*uint64)(unsafe.Pointer(&data[hdr])), words)
	fenced := unsafe.Slice((*atomic.Uint32)(unsafe.Pointer(&data[mapFencedOff])), maxClients+1)
	md.init(w, fenced)
	return md
}

// Path returns the backing file's path.
func (m *MapDevice) Path() string { return m.path }

// Sync flushes dirty pages to the backing file (msync MS_SYNC). The OS
// writes dirty pages back eventually anyway; Sync is for tools that want a
// durability point before, say, copying the file.
func (m *MapDevice) Sync() error { return msync(m.data) }

// Close unmaps the pool. The pool itself lives on in the file — that is
// the point — but this mapping becomes invalid: any later access through
// this device faults, exactly like touching powered-off memory. Handles
// opened from it must not be used afterwards.
func (m *MapDevice) Close() error {
	if m.data == nil {
		return nil
	}
	err := munmap(m.data)
	m.data = nil
	m.words = nil
	m.fenced = nil
	return err
}
