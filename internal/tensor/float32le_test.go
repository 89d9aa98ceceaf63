package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// refPutLE and refGetLE are the little-endian float32 run, one coordinate
// at a time: the definition the kernels are held to.
func refPutLE(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func refGetLE(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// refZeroFree is the prefix PutFloat32sLE must report: len(src) without a
// zero bit pattern; otherwise, for a first zero at z, the start of z's
// eight-coordinate step when that step is whole, and z itself in the tail.
func refZeroFree(src []float32) int {
	for z, v := range src {
		if math.Float32bits(v) == 0 {
			if z < len(src)&^7 {
				return z &^ 7
			}
			return z
		}
	}
	return len(src)
}

// leOddBits are the bit patterns a float32 run must carry unchanged: NaNs of
// both signs, quiet and signalling with payloads, infinities, negative zero,
// denormals and the extremes. None is +0.
var leOddBits = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc00001, 0xffd55555, // quiet NaNs
	0x7f800001, 0xff800001, 0x7fa00000, 0xffbfffff, // signalling NaNs
	0x7f800000, 0xff800000, // ±Inf
	0x80000000,                                     // -0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x7f7fffff, 0xff7fffff, 0x00800000, 0x3f800000, 0xbf800001,
}

// leVector returns n coordinates mixing random normals with leOddBits,
// none of them a +0 bit pattern.
func leVector(rng *RNG, n int) []float32 {
	v := make([]float32, n)
	rng.FillNorm(v, 1)
	for i := range v {
		if i%3 == 1 {
			v[i] = math.Float32frombits(leOddBits[(i/3)%len(leOddBits)])
		}
		if math.Float32bits(v[i]) == 0 {
			v[i] = 1
		}
	}
	return v
}

// TestFloat32LEMatchesReference holds PutFloat32sLE and GetFloat32sLE to the
// per-element little-endian loops byte for byte and bit for bit, on every
// kernel tier the CPU has: every length 0–300 (each tail modulo 8, after
// zero to many four-vector steps) and 2¹⁸, carrying every odd bit pattern.
// The encoder's zero-free prefix is held to its contract with one +0 at
// every position — each lane of each vector and each tail slot — and the
// encoder writes every coordinate whatever it reports, and nothing past
// them.
func TestFloat32LEMatchesReference(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		rng := NewRNG(51)
		lengths := make([]int, 0, 302)
		for n := 0; n <= 300; n++ {
			lengths = append(lengths, n)
		}
		lengths = append(lengths, 1<<18)
		for _, n := range lengths {
			v := leVector(rng, n)
			want := make([]byte, 4*n)
			got := make([]byte, 4*n+4)
			check := func(what string) {
				t.Helper()
				refPutLE(want, v)
				for i := range got {
					got[i] = 0xa5
				}
				if m, wantM := PutFloat32sLE(got, v), refZeroFree(v); m != wantM {
					t.Fatalf("n=%d %s: zero-free prefix %d, want %d", n, what, m, wantM)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d %s: byte %d is %#x, want %#x", n, what, i, got[i], want[i])
					}
				}
				for i, b := range got[4*n:] {
					if b != 0xa5 {
						t.Fatalf("n=%d %s: byte %d past the run written", n, what, 4*n+i)
					}
				}
			}
			check("no zero")
			if n <= 300 {
				for p := range v {
					keep := v[p]
					v[p] = 0
					check(fmt.Sprintf("+0 at %d", p))
					v[p] = keep
				}
			} else {
				for _, p := range []int{0, 7, 8, 31, 32, 127, 128, n/2 + 3, n - 9, n - 1} {
					keep := v[p]
					v[p] = 0
					check(fmt.Sprintf("+0 at %d", p))
					v[p] = keep
				}
			}

			// Decode any bytes at all, the run above or random ones.
			dec := make([]float32, n+1)
			for _, src := range [][]byte{want, randomBytes(rng, 4*n)} {
				ref := make([]float32, n)
				refGetLE(ref, src)
				dec[n] = 7
				GetFloat32sLE(dec[:n], src)
				for i := range ref {
					if math.Float32bits(dec[i]) != math.Float32bits(ref[i]) {
						t.Fatalf("n=%d: decoded coordinate %d is %#x, want %#x", n, i, math.Float32bits(dec[i]), math.Float32bits(ref[i]))
					}
				}
				if dec[n] != 7 {
					t.Fatalf("n=%d: the decode wrote past its run", n)
				}
			}
		}
	})
}

func randomBytes(rng *RNG, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

// TestAxpyFloat32sLEMatchesReference holds the fold's kernels to what they
// replace, bit for bit, on every kernel tier the CPU has: AxpyFloat32sLE to
// GetFloat32sLE into a buffer and AxpySlice from it, and the write forms,
// AxpyWriteFloat32sLE and AxpyWriteSlice, to that over a cleared dst. Every
// length 0–300 and 2¹⁸; x carries NaNs of both signs with payloads, ±Inf, -0
// and denormals (leOddBits), so some products are NaN or infinite and some
// round to -0, which the write forms must turn into +0 as the add onto a
// cleared coordinate does; dst starts out random with NaNs and infinities
// among it. Nothing past dst is written.
func TestAxpyFloat32sLEMatchesReference(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		rng := NewRNG(52)
		lengths := make([]int, 0, 302)
		for n := 0; n <= 300; n++ {
			lengths = append(lengths, n)
		}
		lengths = append(lengths, 1<<18)
		for _, n := range lengths {
			x := leVector(rng, n)
			run := make([]byte, 4*n)
			PutFloat32sLE(run, x)
			start := leVector(rng, n+1)
			for _, a := range []float32{0.75, -3, 1e-30, 0} {
				what := fmt.Sprintf("n=%d a=%g", n, a)
				dec := make([]float32, n)
				GetFloat32sLE(dec, run)

				want := slices.Clone(start)
				AxpySlice(want[:n], a, dec)
				got := slices.Clone(start)
				AxpyFloat32sLE(got[:n], a, run)
				requireBits32(t, what+" AxpyFloat32sLE", got, want, false)

				clear(want[:n])
				AxpySlice(want[:n], a, dec)
				got = slices.Clone(start)
				AxpyWriteFloat32sLE(got[:n], a, run)
				requireBits32(t, what+" AxpyWriteFloat32sLE", got, want, false)
				got = slices.Clone(start)
				AxpyWriteSlice(got[:n], a, x)
				requireBits32(t, what+" AxpyWriteSlice", got, want, false)
			}
		}
	})
}
