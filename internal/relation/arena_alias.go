package relation

import (
	"fmt"
	"unsafe"
)

// This file holds the zero-copy side of the snapshot arena: when a raw
// little-endian []SumCount section sits in an already-materialized (or
// memory-mapped) payload at a compatible offset, the decoder can alias
// the bytes in place instead of copying them onto the heap. All unsafe
// code in the codec lives here.

// hostLittleEndian reports whether the running machine stores multi-byte
// values little-endian — the snapshot wire order. On a big-endian host
// aliasing is never attempted and decoding falls back to the copying
// path, which byte-swaps per value.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// SkipPad consumes alignment padding written by SnapWriter.Align16: a
// one-byte pad length in [0, 15] followed by that many zero bytes.
func (sr *SnapReader) SkipPad() {
	n := sr.U8()
	if sr.err == nil && n >= 16 {
		sr.err = fmt.Errorf("relation: snapshot: pad length %d out of range", n)
		return
	}
	sr.bytes(int(n))
}

// AliasSumCounts returns the next n (sum, count) pairs as a []SumCount
// aliasing the reader's backing buffer directly, consuming n*16 bytes.
// It succeeds only when the host is little-endian and the current
// position is suitably aligned for SumCount; otherwise it returns
// (nil, false) WITHOUT consuming anything, and the caller decodes through
// the copying path.
// The returned slice is read-only and stays valid exactly as long as
// the backing buffer does — callers aliasing a memory mapping must keep
// the mapping's owner reachable.
//
//tsexplain:hotpath
func (sr *SnapReader) AliasSumCounts(n int) ([]SumCount, bool) {
	if sr.err != nil || !hostLittleEndian || n <= 0 {
		return nil, false
	}
	if n > (len(sr.buf)-sr.pos)/16 {
		return nil, false
	}
	b := sr.buf[sr.pos : sr.pos+n*16]
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(SumCount{}) != 0 {
		return nil, false
	}
	sr.pos += n * 16
	return unsafe.Slice((*SumCount)(unsafe.Pointer(&b[0])), n), true
}
