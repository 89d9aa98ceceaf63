package fed

import (
	"math"
	"testing"
)

// TestF16RoundTripAllHalves: every binary16 bit pattern must survive
// half → float32 → half exactly (float32 represents all half values, and the
// back-conversion must round-trip them, NaN payloads included).
func TestF16RoundTripAllHalves(t *testing.T) {
	for h := 0; h <= 0xFFFF; h++ {
		f := f16ToF32(uint16(h))
		back := f32ToF16(f)
		if back != uint16(h) {
			t.Fatalf("half %#04x → %v → %#04x", h, f, back)
		}
	}
}

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{float32(math.Copysign(0, -1)), 0x8000},
		{1, 0x3C00},
		{-2, 0xC000},
		{0.5, 0x3800},
		{65504, 0x7BFF},                 // largest finite half
		{65536, 0x7C00},                 // overflow → +Inf
		{float32(math.Inf(-1)), 0xFC00}, // -Inf
		{5.9604645e-8, 0x0001},          // smallest subnormal (2^-24)
		{6.0975552e-5, 0x03FF},          // largest subnormal ((1023/1024)·2^-14)
		{6.1035156e-5, 0x0400},          // smallest normal (2^-14)
		{1e-9, 0x0000},                  // underflow → 0
		{1.0009765625, 0x3C01},          // 1 + 2^-10, exact
		{1.00048828125, 0x3C00},         // 1 + 2^-11: tie, rounds to even
	}
	for _, c := range cases {
		if got := f32ToF16(c.f); got != c.h {
			t.Errorf("f32ToF16(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
	}
	if h := f32ToF16(float32(math.NaN())); h&0x7C00 != 0x7C00 || h&0x3FF == 0 {
		t.Errorf("NaN encoded as %#04x, not a half NaN", h)
	}
	// 1 + 3·2^-11 rounds up to 1 + 2·2^-11 (even).
	if got := f32ToF16(1.0 + 3.0/2048.0); got != 0x3C02 {
		t.Errorf("tie-up case = %#04x, want 0x3C02", got)
	}
}

func TestI8QuantRoundTrip(t *testing.T) {
	vals := []float32{0, 1, -1, 0.5, 127, -127, 63.3}
	scale := i8Scale(vals)
	if scale != 1 { // maxAbs = 127 → scale 1
		t.Fatalf("scale = %v, want 1", scale)
	}
	for _, v := range []float32{0, 1, -1, 127, -127, 63} {
		q := i8Quantize(v, scale)
		if float32(q)*scale != v {
			t.Errorf("value %v → %d → %v", v, q, float32(q)*scale)
		}
	}
	// Clamping and NaN handling.
	if q := i8Quantize(1e9, scale); q != 127 {
		t.Errorf("overflow quantised to %d", q)
	}
	if q := i8Quantize(float32(math.NaN()), scale); q != 0 {
		t.Errorf("NaN quantised to %d", q)
	}
	// All-zero input: scale 0, everything decodes to exact zero.
	if s := i8Scale([]float32{0, 0}); s != 0 {
		t.Errorf("zero scale = %v", s)
	}
	if q := i8Quantize(0, 0); q != 0 {
		t.Errorf("zero value at zero scale → %d", q)
	}
	// Infinity must not poison the scale.
	if s := i8Scale([]float32{float32(math.Inf(1)), 1}); math.IsInf(float64(s), 0) {
		t.Errorf("Inf leaked into scale: %v", s)
	}
}
