package colstore

import (
	"encoding/binary"
	"unsafe"
)

// The format is little-endian on disk. On little-endian hosts (every
// platform this repo targets in production: amd64, arm64) the typed
// column views are unsafe.Slice reinterpretations of the raw bytes —
// zero copies, zero decoding. On a big-endian host both directions
// fall back to an explicit binary.LittleEndian transcode, so the file
// format stays portable even though the fast path never runs there.

// hostLittleEndian is computed once; all the unsafe fast paths are
// gated on it.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64Bytes returns the raw little-endian bytes of s without
// copying on little-endian hosts. The returned slice aliases s.
func float64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], float64bits(v))
	}
	return b
}

// int64Bytes is float64Bytes for int64 columns.
func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
	}
	b := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b
}

// float32Bytes is float64Bytes for float32 columns.
func float32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	b := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[i*4:], *(*uint32)(unsafe.Pointer(&v)))
	}
	return b
}

// int32Bytes is float64Bytes for int32 columns.
func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
	}
	b := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	return b
}

// float64sFrom reinterprets b (length 8n, 8-byte aligned — the caller
// has already validated section alignment) as n float64s. Zero-copy on
// little-endian hosts; a decoded copy otherwise.
func float64sFrom(b []byte) []float64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// int64sFrom is float64sFrom for int64 columns.
func int64sFrom(b []byte) []int64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// int32sFrom is float64sFrom for int32 columns (4-byte alignment
// suffices; sections are 8-aligned anyway).
func int32sFrom(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// float32sFrom is float64sFrom for float32 columns (4-byte alignment
// suffices; sections are 8-aligned anyway).
func float32sFrom(b []byte) []float32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float32, n)
	for i := range out {
		u := binary.LittleEndian.Uint32(b[i*4:])
		out[i] = *(*float32)(unsafe.Pointer(&u))
	}
	return out
}

// float64bits / float64frombits avoid importing math for two one-line
// bit casts.
func float64bits(f float64) uint64     { return *(*uint64)(unsafe.Pointer(&f)) }
func float64frombits(u uint64) float64 { return *(*float64)(unsafe.Pointer(&u)) }

// alignedBuf returns a byte slice of length n whose base address is
// 8-byte aligned, so the read (non-mmap) path can hand its buffer to
// the same unsafe.Slice reinterpretation the mmap path uses. Backing
// the buffer with []uint64 guarantees the alignment instead of relying
// on allocator size classes.
func alignedBuf(n int) []byte {
	words := make([]uint64, (n+7)/8)
	if len(words) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:n]
}
