package tensor

import (
	"fmt"
	"math"
	"testing"
)

// convGeom is one lowering problem: a batch, a square window and the channel
// range a caller asks for.
type convGeom struct {
	n, c, h, w, k, stride, pad, chLo, chHi int
}

func (g convGeom) String() string {
	return fmt.Sprintf("n%d c%d[%d:%d] %dx%d k%d s%d p%d", g.n, g.c, g.chLo, g.chHi, g.h, g.w, g.k, g.stride, g.pad)
}

func (g convGeom) outSize() (outH, outW int) {
	return ConvOutSize(g.h, g.k, g.stride, g.pad), ConvOutSize(g.w, g.k, g.stride, g.pad)
}

// matrixLen and batchLen are the sizes of the whole column matrix and batch.
func (g convGeom) matrixLen() int {
	outH, outW := g.outSize()
	return g.c * g.k * g.k * g.n * outH * outW
}
func (g convGeom) batchLen() int { return g.n * g.c * g.h * g.w }

// forEachSlot visits every slot of the column-matrix rows of channels
// [chLo, chHi) in (channel, ky, kx, image, oy, ox) order with the index of the
// input pixel its tap reads, or -1 where the tap lands in the padding: the
// definition of the lowering, one bounds check per pixel.
func (g convGeom) forEachSlot(chLo, chHi int, fn func(slot, pixel int)) {
	outH, outW := g.outSize()
	ns := g.n * outH * outW
	for ch := chLo; ch < chHi; ch++ {
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				r := (ch*g.k+ky)*g.k + kx
				for i := 0; i < g.n; i++ {
					for oy := 0; oy < outH; oy++ {
						for ox := 0; ox < outW; ox++ {
							iy, ix := oy*g.stride+ky-g.pad, ox*g.stride+kx-g.pad
							pixel := -1
							if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
								pixel = ((i*g.c+ch)*g.h+iy)*g.w + ix
							}
							fn(r*ns+(i*outH+oy)*outW+ox, pixel)
						}
					}
				}
			}
		}
	}
}

// identity returns the channel list 0..c-1: every channel in its own slot,
// the full column matrix.
func identity(c int) []int {
	chans := make([]int, c)
	for i := range chans {
		chans[i] = i
	}
	return chans
}

// lowerOver and raiseOver call the routines the way Conv2D does: split over
// the channel range on the kernel pool.
func (g convGeom) lowerOver(cols, x []float32) {
	outH, outW := g.outSize()
	chans := identity(g.c)
	Parallel(g.chHi-g.chLo, func(lo, hi int) {
		Im2Col(cols, x, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, chans, g.chLo+lo, g.chLo+hi)
	})
}

func (g convGeom) raiseOver(dx, dcols []float32) {
	outH, outW := g.outSize()
	Parallel(g.chHi-g.chLo, func(lo, hi int) {
		Col2Im(dx, dcols, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, g.chLo+lo, g.chLo+hi, nil)
	})
}

func sameBits(t *testing.T, what string, g convGeom, got, want []float32) {
	t.Helper()
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%v: %s[%d] = %v, want %v", g, what, j, got[j], want[j])
		}
	}
}

// checkLowerRaise holds one geometry to the per-pixel definition.
//
// Lowering must equal the bounds-checked gather exactly, write every slot of
// its channels' rows (the destination starts as NaN) and nothing outside them.
//
// Raising must equal, bit for bit, a scatter in (channel, ky, kx, image, oy,
// ox) order made of scalar adds onto cleared planes. This is the check that
// protects every fixed-seed trajectory and the benchmark's result_digest: the
// input gradient of each convolution is a float32 sum whose bits depend on
// the order of its adds, and that order is the one this reference spells out.
// Every padding slot of the column gradient — the wrap slots a plane-shift
// run crosses among them — holds NaN, so a routine that summed one would
// poison its plane; afterwards the source may differ from what it was only in
// padding slots set to 0.
func checkLowerRaise(t *testing.T, g convGeom) {
	t.Helper()
	nan := float32(math.NaN())
	rng := NewRNG(uint64(31 + g.k + 7*g.stride + 11*g.pad))
	x := make([]float32, g.batchLen())
	rng.FillNorm(x, 1)
	dcols := make([]float32, g.matrixLen())
	rng.FillNorm(dcols, 1)
	g.forEachSlot(0, g.c, func(slot, pixel int) {
		if pixel < 0 {
			dcols[slot] = nan
		}
	})

	wantCols := make([]float32, g.matrixLen())
	wantDx := make([]float32, g.batchLen())
	for j := range wantCols {
		wantCols[j] = nan
	}
	for j := range wantDx {
		wantDx[j] = nan
	}
	g.forEachSlot(g.chLo, g.chHi, func(slot, pixel int) {
		wantCols[slot] = 0
		if pixel >= 0 {
			wantCols[slot] = x[pixel]
		}
	})
	for i := 0; i < g.n; i++ {
		clear(wantDx[(i*g.c+g.chLo)*g.h*g.w : (i*g.c+g.chHi)*g.h*g.w])
	}
	g.forEachSlot(g.chLo, g.chHi, func(slot, pixel int) {
		if pixel >= 0 {
			wantDx[pixel] += dcols[slot]
		}
	})

	// 3 puts a split in the middle of a 5-channel range and leaves a 3-channel
	// one with as many workers as channels; 4 leaves it with fewer.
	for _, threads := range []int{1, 3, 4} {
		pinKernelThreads(t, threads)
		cols := make([]float32, len(wantCols))
		for j := range cols {
			cols[j] = nan
		}
		g.lowerOver(cols, x)
		sameBits(t, fmt.Sprintf("cols at %d threads", threads), g, cols, wantCols)

		dx := make([]float32, len(wantDx))
		for j := range dx {
			dx[j] = nan
		}
		src := append([]float32(nil), dcols...)
		g.raiseOver(dx, src)
		sameBits(t, fmt.Sprintf("dx at %d threads", threads), g, dx, wantDx)
		g.forEachSlot(0, g.c, func(slot, pixel int) {
			was, is := math.Float32bits(dcols[slot]), math.Float32bits(src[slot])
			if is != was && (pixel >= 0 || is != 0) {
				t.Fatalf("%v: raising at %d threads left dcols[%d] = %v, was %v (pixel %d)", g, threads, slot, src[slot], dcols[slot], pixel)
			}
		})
	}
}

// TestIm2ColCol2ImContract runs checkLowerRaise over the geometries the two
// inner loops and their fringes can meet, with the AVX2 row add and with its
// pure-Go form.
func TestIm2ColCol2ImContract(t *testing.T) {
	type contractCase struct {
		name  string
		geoms []convGeom
	}
	cases := []contractCase{
		{"same", []convGeom{
			{3, 3, 5, 7, 3, 1, 1, 0, 3}, {1, 3, 6, 4, 5, 1, 2, 0, 3}, {3, 3, 9, 8, 7, 1, 3, 0, 3}, {3, 3, 4, 6, 1, 1, 0, 0, 3},
		}},
		{"strided", []convGeom{
			{3, 3, 5, 7, 3, 2, 1, 0, 3}, {3, 3, 8, 6, 1, 2, 0, 0, 3}, {1, 3, 9, 7, 5, 3, 2, 0, 3}, {3, 3, 7, 9, 7, 2, 3, 0, 3},
		}},
		// Stride 1 with outW != w: rows of the map do not abut in the matrix.
		{"valid_stride1", []convGeom{
			{3, 3, 6, 7, 3, 1, 0, 0, 3}, {1, 3, 7, 6, 5, 1, 1, 0, 3}, {3, 3, 5, 5, 3, 1, 2, 0, 3},
		}},
		// Taps that never land inside the input, on both inner loops.
		{"kernel_larger_than_input", []convGeom{
			{3, 2, 1, 1, 7, 1, 3, 0, 2}, {1, 2, 1, 2, 7, 2, 3, 0, 2}, {3, 3, 2, 2, 5, 1, 2, 0, 3}, {3, 3, 2, 3, 7, 3, 3, 0, 3},
		}},
		// Rows and planes outside the requested channels must survive.
		{"channel_subrange", []convGeom{
			{3, 5, 5, 7, 3, 1, 1, 1, 4}, {3, 5, 5, 7, 3, 2, 1, 1, 4}, {1, 5, 4, 4, 1, 1, 0, 4, 5}, {3, 5, 6, 5, 5, 1, 2, 0, 5},
		}},
	}
	var sweep []convGeom
	for _, n := range []int{1, 3} {
		for _, hw := range [][2]int{{5, 7}, {6, 4}, {2, 2}, {1, 1}} {
			for _, k := range []int{1, 3, 5, 7} {
				for _, stride := range []int{1, 2, 3} {
					for _, pad := range []int{0, 1, 2, 3} {
						if hw[0]+2*pad >= k && hw[1]+2*pad >= k {
							sweep = append(sweep, convGeom{n, 3, hw[0], hw[1], k, stride, pad, 0, 3})
						}
					}
				}
			}
		}
	}
	cases = append(cases, contractCase{"sweep", sweep})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEachKernelGate(t, func(t *testing.T) {
				for _, g := range tc.geoms {
					checkLowerRaise(t, g)
				}
			})
		})
	}
}

// TestIm2ColSlotsCol2ImMask holds the two entry points a convolution with dead
// channels uses to the full routines. Lowering a list of channels into slots
// must write, in slot s, exactly the rows the full matrix holds for channel
// chans[s], and nothing past the slots it was given. Raising under a row mask
// must equal the reference scatter over the rows the mask keeps — the others
// hold NaN here, so touching one shows — clear every plane all the same, and
// leave the masked-out rows as they were.
func TestIm2ColSlotsCol2ImMask(t *testing.T) {
	nan := float32(math.NaN())
	forEachKernelGate(t, func(t *testing.T) {
		for _, g := range []convGeom{
			{3, 5, 5, 7, 3, 1, 1, 0, 5}, {3, 5, 5, 7, 3, 2, 1, 0, 5}, {2, 5, 4, 4, 1, 2, 0, 0, 5}, {1, 5, 6, 5, 5, 1, 2, 0, 5},
		} {
			outH, outW := g.outSize()
			kk, ns := g.k*g.k, g.n*outH*outW
			rng := NewRNG(uint64(61 + g.k + g.stride))
			x := make([]float32, g.batchLen())
			rng.FillNorm(x, 1)
			full := make([]float32, g.matrixLen())
			Im2Col(full, x, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, identity(g.c), 0, g.c)

			dcols := make([]float32, g.matrixLen())
			rng.FillNorm(dcols, 1)
			mask := make([]bool, g.c*kk)
			for r := range mask {
				// Channel 3 keeps no row at all; the others lose every third.
				mask[r] = r/kk != 3 && r%3 != 1
				if !mask[r] {
					for j := range dcols[r*ns : (r+1)*ns] {
						dcols[r*ns+j] = nan
					}
				}
			}
			wantDx := make([]float32, g.batchLen())
			g.forEachSlot(0, g.c, func(slot, pixel int) {
				if pixel >= 0 && mask[slot/ns] {
					wantDx[pixel] += dcols[slot]
				}
			})

			chans := []int{0, 2, 3}
			for _, threads := range []int{1, 2, 4} {
				pinKernelThreads(t, threads)
				cols := make([]float32, (len(chans)+1)*kk*ns)
				for j := range cols {
					cols[j] = nan
				}
				Parallel(len(chans), func(lo, hi int) {
					Im2Col(cols, x, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, chans, lo, hi)
				})
				for s, ch := range chans {
					sameBits(t, fmt.Sprintf("slot %d at %d threads", s, threads), g, cols[s*kk*ns:(s+1)*kk*ns], full[ch*kk*ns:(ch+1)*kk*ns])
				}
				for j, v := range cols[len(chans)*kk*ns:] {
					if v == v {
						t.Fatalf("%v: lowering %d slots wrote past them (offset %d)", g, len(chans), j)
					}
				}

				dx := make([]float32, g.batchLen())
				for j := range dx {
					dx[j] = nan
				}
				src := append([]float32(nil), dcols...)
				Parallel(g.c, func(lo, hi int) {
					Col2Im(dx, src, g.n, g.c, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, lo, hi, mask)
				})
				sameBits(t, fmt.Sprintf("masked dx at %d threads", threads), g, dx, wantDx)
				for r, on := range mask {
					for j := r * ns; !on && j < (r+1)*ns; j++ {
						if src[j] == src[j] {
							t.Fatalf("%v: raising wrote row %d, which the mask leaves out", g, r)
						}
					}
				}
			}
		}
	})
}
