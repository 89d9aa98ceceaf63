package tensor

import (
	"encoding/binary"
	"math"
)

// A little-endian float32 run is the byte form every dense vector takes on
// the wire (the fed codec's params blocks) and on disk (the checkpoint's
// snapshot): coordinate i's IEEE-754 bits as four little-endian bytes at
// offset 4i. The Go loops below are that format's definition, and what every
// build without AVX2 runs. amd64 is little-endian by ISA, so its AVX2 forms
// (float32le_amd64.s, behind hasDot4) move the same bytes 32 at a time; no
// path reinterprets a []byte as a []float32, so the format cannot come to
// depend on a host's byte order. The server's fold reads a dense upload's
// run where it arrived (AxpyFloat32sLE and its write form): AxpySlice's
// arithmetic, its x taken from the run.

// PutFloat32sLE encodes src as a little-endian float32 run at the front of
// dst, which must hold at least 4·len(src) bytes, and tests what it writes
// in the same pass: it returns len(src) when no coordinate of src has an
// all-zero bit pattern, and otherwise a prefix length m with no zero in
// src[:m] and one in src[m:m+8] — the start of the eight-coordinate step
// (counted from src[0]) or the tail coordinate holding the first zero. A
// negative zero is not a zero. Every coordinate is written either way.
func PutFloat32sLE(dst []byte, src []float32) (zeroFree int) {
	dst = dst[:4*len(src)]
	if n8 := len(src) &^ 7; hasDot4 && n8 > 0 {
		m := putF32sAVX(&dst[0], &src[0], n8)
		tail := putF32sZeroFree(dst[4*n8:], src[n8:])
		if m < n8 {
			return m
		}
		return n8 + tail
	}
	return putF32sZeroFree(dst, src)
}

// GetFloat32sLE decodes the little-endian float32 run at the front of src
// into dst; src must hold at least 4·len(dst) bytes.
func GetFloat32sLE(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	if n8 := len(dst) &^ 7; hasDot4 && n8 > 0 {
		getF32sAVX(&dst[0], &src[0], n8)
		dst, src = dst[n8:], src[4*n8:]
	}
	getF32s(dst, src)
}

// AxpyFloat32sLE is AxpySlice with x read from the little-endian float32 run
// at the front of src: dst[i] += a·x[i], the product rounded before its add,
// bit for bit GetFloat32sLE into a buffer and AxpySlice from it, with no
// buffer. src must hold at least 4·len(dst) bytes.
func AxpyFloat32sLE(dst []float32, a float32, src []byte) {
	src = src[:4*len(dst)]
	if n8 := len(dst) &^ 7; hasDot4 && n8 > 0 {
		axpyLEAVX(&dst[0], &src[0], n8, a)
		dst, src = dst[n8:], src[4*n8:]
	}
	for len(dst) >= 4 && len(src) >= 16 {
		d, s := dst[:4], src[:16]
		d[0] += float32(a * math.Float32frombits(binary.LittleEndian.Uint32(s[0:])))
		d[1] += float32(a * math.Float32frombits(binary.LittleEndian.Uint32(s[4:])))
		d[2] += float32(a * math.Float32frombits(binary.LittleEndian.Uint32(s[8:])))
		d[3] += float32(a * math.Float32frombits(binary.LittleEndian.Uint32(s[12:])))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] += float32(a * math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// AxpyWriteFloat32sLE is AxpyFloat32sLE's write form, AxpyWriteSlice with x
// read from the run: dst[i] = 0 + a·x[i], bit for bit clearing dst and then
// AxpyFloat32sLE, without reading dst (the +0 turns a -0 product into +0).
func AxpyWriteFloat32sLE(dst []float32, a float32, src []byte) {
	src = src[:4*len(dst)]
	if n8 := len(dst) &^ 7; hasDot4 && n8 > 0 {
		axpyWriteLEAVX(&dst[0], &src[0], n8, a)
		dst, src = dst[n8:], src[4*n8:]
	}
	for len(dst) >= 4 && len(src) >= 16 {
		d, s := dst[:4], src[:16]
		d[0] = 0 + float32(a*math.Float32frombits(binary.LittleEndian.Uint32(s[0:])))
		d[1] = 0 + float32(a*math.Float32frombits(binary.LittleEndian.Uint32(s[4:])))
		d[2] = 0 + float32(a*math.Float32frombits(binary.LittleEndian.Uint32(s[8:])))
		d[3] = 0 + float32(a*math.Float32frombits(binary.LittleEndian.Uint32(s[12:])))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = 0 + float32(a*math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// getF32s is GetFloat32sLE's Go form. It moves four coordinates a step, each
// step one 16-byte window of src: with both lengths in the loop condition
// the compiler proves all eight accesses in bounds, where src[4*i:] costs a
// check per coordinate.
func getF32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for len(dst) >= 4 && len(src) >= 16 {
		d, s := dst[:4], src[:16]
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// putF32sZeroFree is PutFloat32sLE's Go form. Until it meets a zero it
// steps eight coordinates at a time, storing them and ANDing their u | -u,
// whose sign bit is set exactly when u != 0; from the step that holds the
// first zero on it only stores (putF32s).
func putF32sZeroFree(dst []byte, src []float32) int {
	n := len(src)
	dst = dst[:4*n]
	for len(src) >= 8 && len(dst) >= 32 {
		s, d := src[:8], dst[:32]
		u0, u1, u2, u3 := math.Float32bits(s[0]), math.Float32bits(s[1]), math.Float32bits(s[2]), math.Float32bits(s[3])
		u4, u5, u6, u7 := math.Float32bits(s[4]), math.Float32bits(s[5]), math.Float32bits(s[6]), math.Float32bits(s[7])
		binary.LittleEndian.PutUint32(d[0:], u0)
		binary.LittleEndian.PutUint32(d[4:], u1)
		binary.LittleEndian.PutUint32(d[8:], u2)
		binary.LittleEndian.PutUint32(d[12:], u3)
		binary.LittleEndian.PutUint32(d[16:], u4)
		binary.LittleEndian.PutUint32(d[20:], u5)
		binary.LittleEndian.PutUint32(d[24:], u6)
		binary.LittleEndian.PutUint32(d[28:], u7)
		if ((u0|-u0)&(u1|-u1)&(u2|-u2)&(u3|-u3)&(u4|-u4)&(u5|-u5)&(u6|-u6)&(u7|-u7))>>31 == 0 {
			putF32s(dst[32:], src[8:])
			return n - len(src)
		}
		src, dst = src[8:], dst[32:]
	}
	for i, v := range src {
		u := math.Float32bits(v)
		if u == 0 {
			putF32s(dst[4*i:], src[i:])
			return n - len(src) + i
		}
		binary.LittleEndian.PutUint32(dst[4*i:], u)
	}
	return n
}

// putF32s encodes src as a little-endian float32 run at the front of dst,
// which must hold at least 4·len(src) bytes: getF32s' loop the other way
// round.
func putF32s(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	for len(src) >= 4 && len(dst) >= 16 {
		s, d := src[:4], dst[:16]
		binary.LittleEndian.PutUint32(d[0:], math.Float32bits(s[0]))
		binary.LittleEndian.PutUint32(d[4:], math.Float32bits(s[1]))
		binary.LittleEndian.PutUint32(d[8:], math.Float32bits(s[2]))
		binary.LittleEndian.PutUint32(d[12:], math.Float32bits(s[3]))
		src, dst = src[4:], dst[16:]
	}
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}
