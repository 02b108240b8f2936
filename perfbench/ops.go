package main

import (
	"encoding/binary"

	"repro/internal/workload"
)

// valSize is the value size of every kv workload.
const valSize = 64

// fillValue writes version ver of key's value into buf: the key, the
// version, then bytes derived from both. Every write of a key stores a new
// version, so a read can tell a lost or stale update from the current one,
// and the derived bytes catch torn or misdirected values.
func fillValue(buf []byte, key uint64, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint32(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[12:], ^ver)
	x := key*0x9e3779b97f4a7c15 ^ uint64(ver)<<29 ^ 0x5bd1e995
	for i := 16; i < len(buf); i += 8 {
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(buf[i:], w[:])
	}
}

// checkValue decodes buf as a value of key and returns its version; ok is
// false when buf is not exactly what fillValue writes for that version.
func checkValue(buf []byte, key uint64) (ver uint32, ok bool) {
	if len(buf) != valSize || binary.LittleEndian.Uint64(buf) != key {
		return 0, false
	}
	ver = binary.LittleEndian.Uint32(buf[8:])
	var want [valSize]byte
	fillValue(want[:], key, ver)
	return ver, string(want[:]) == string(buf)
}

// opKind is one kind of serving operation.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
)

func (k opKind) String() string {
	return [...]string{"get", "put", "scan"}[k]
}

// genOp is one generated operation. For a scan, key seeds the start bucket.
type genOp struct {
	kind opKind
	key  uint64
}

// opGen turns a seeded YCSB stream into one load connection's operations.
// Each key has exactly one writing connection (key mod conns), so per-key
// versions are ordered without coordination: a generated write to a key
// owned by another connection is moved to the nearest key this one owns.
type opGen struct {
	s         *workload.KVStream
	g, conns  int
	keys      int
	scanEvery int
	n         int
}

func newOpGen(sh *shape, seed int64, g int) (*opGen, error) {
	s, err := workload.NewKVStream(workload.KVConfig{
		Keys: sh.keys, WriteRatio: sh.writeRatio, Zipf: sh.zipf,
		Seed: seed*1_000_003 + int64(g),
	})
	if err != nil {
		return nil, err
	}
	return &opGen{s: s, g: g, conns: conns, keys: sh.keys, scanEvery: sh.scanEvery}, nil
}

func (o *opGen) next() genOp {
	op := o.s.Next()
	o.n++
	switch {
	case o.scanEvery > 0 && o.n%o.scanEvery == 0:
		return genOp{opScan, op.Key}
	case op.Kind == workload.OpWrite:
		return genOp{opPut, ownedKey(op.Key, o.g, o.conns, o.keys)}
	}
	return genOp{opGet, op.Key}
}

// ownedKey maps k to the nearest key that connection g of conns writes.
func ownedKey(k uint64, g, conns, keys int) uint64 {
	c := uint64(conns)
	k = k - k%c + uint64(g)
	if k >= uint64(keys) {
		k -= c
	}
	return k
}
