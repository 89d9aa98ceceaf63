package tensor

import (
	"fmt"
	"math"
	"slices"
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
								pixel = ((ch*g.n+i)*g.h+iy)*g.w + ix
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
		Im2Col(cols, x, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, chans, g.chLo+lo, g.chLo+hi)
	})
}

func (g convGeom) raiseOver(dx, dcols []float32) {
	outH, outW := g.outSize()
	Parallel(g.chHi-g.chLo, func(lo, hi int) {
		Col2Im(dx, dcols, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, g.chLo+lo, g.chLo+hi, nil)
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
// Every padding slot of the column gradient — the wrap and fringe slots a
// plane-shift stretch crosses among them — holds NaN, so a routine that
// summed one would poison its plane; raising only reads its source, which
// must come back with every bit as it was. The first and last row and
// column of every image, of the batch and of each row of the column
// gradient, hold NaN, ±Inf and −0 (plantEdges): the pixels a wrap or fringe
// slot faces, so one left unzeroed, or a read or add that strays into a
// neighbouring row or image, changes bits. The column gradient gets no −Inf:
// Inf + (−Inf) is the default NaN, whose bits are not the planted NaN's, and
// which of two NaNs a sum keeps depends on an operand order the compiler is
// free to swap.
func checkLowerRaise(t *testing.T, g convGeom) {
	t.Helper()
	nan, inf, negZero := float32(math.NaN()), float32(math.Inf(1)), float32(math.Copysign(0, -1))
	outH, outW := g.outSize()
	rng := NewRNG(uint64(31 + g.k + 7*g.stride + 11*g.pad))
	x := make([]float32, g.batchLen())
	rng.FillNorm(x, 1)
	plantEdges(x, g.h, g.w, nan, inf, -inf, negZero)
	dcols := make([]float32, g.matrixLen())
	rng.FillNorm(dcols, 1)
	plantEdges(dcols, outH, outW, nan, inf, negZero)
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
	clear(wantDx[g.chLo*g.n*g.h*g.w : g.chHi*g.n*g.h*g.w])
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
		sameBits(t, fmt.Sprintf("dcols after raising at %d threads", threads), g, src, dcols)
	}
}

// plantEdges writes the specials, in turn, over the first and last row and
// column of every h × w image of buf.
func plantEdges(buf []float32, h, w int, specials ...float32) {
	k := 0
	for img := 0; img < len(buf); img += h * w {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if y == 0 || y == h-1 || x == 0 || x == w-1 {
					buf[img+y*w+x] = specials[k%len(specials)]
					k++
				}
			}
		}
	}
}

// TestIm2ColCol2ImContract runs checkLowerRaise over the geometries the two
// ways a channel moves and their fringes can meet, with the AVX2 kernels and
// with their pure-Go forms. A case named for a way asserts that each of its
// geometries takes it.
func TestIm2ColCol2ImContract(t *testing.T) {
	const either, shift, plan = 0, 1, 2
	type contractCase struct {
		name  string
		path  int
		geoms []convGeom
	}
	cases := []contractCase{
		{"same", shift, []convGeom{
			{3, 3, 5, 7, 3, 1, 1, 0, 3}, {1, 3, 6, 4, 5, 1, 2, 0, 3}, {3, 3, 9, 8, 7, 1, 3, 0, 3}, {3, 3, 4, 6, 1, 1, 0, 0, 3},
		}},
		{"strided", plan, []convGeom{
			{3, 3, 5, 7, 3, 2, 1, 0, 3}, {3, 3, 8, 6, 1, 2, 0, 0, 3}, {1, 3, 9, 7, 5, 3, 2, 0, 3}, {3, 3, 7, 9, 7, 2, 3, 0, 3},
		}},
		// Strided 'same' windows: odd sides leave a pixel row or column no
		// tap of one parity reads, and a stride above the window leaves
		// pixels no tap reads at all.
		{"strided_same", plan, stridedSameGeoms()},
		// Stride 1 with outW != w: rows of the map do not abut in the matrix.
		{"valid_stride1", plan, []convGeom{
			{3, 3, 6, 7, 3, 1, 0, 0, 3}, {1, 3, 7, 6, 5, 1, 1, 0, 3}, {3, 3, 5, 5, 3, 1, 2, 0, 3},
		}},
		// Taps that never land inside the input.
		{"kernel_larger_than_input", either, []convGeom{
			{3, 2, 1, 1, 7, 1, 3, 0, 2}, {1, 2, 1, 2, 7, 2, 3, 0, 2}, {3, 3, 2, 2, 5, 1, 2, 0, 3}, {3, 3, 2, 3, 7, 3, 3, 0, 3},
		}},
		// The same on the plane shift: rows 0 and 6 of a 7×7 window over a
		// 2 × 8 map are all padding.
		{"kernel_larger_than_input_shift", shift, []convGeom{
			{3, 3, 2, 8, 7, 1, 3, 0, 3}, {2, 3, 8, 2, 7, 1, 3, 0, 3},
		}},
		// Many small images a row: the stretch crosses a fringe between every
		// two of them, and a plan's 8-pixel blocks span images.
		{"batch", either, batchGeoms()},
		// Rows and planes outside the requested channels must survive.
		{"channel_subrange", either, []convGeom{
			{3, 5, 5, 7, 3, 1, 1, 1, 4}, {3, 5, 5, 7, 3, 2, 1, 1, 4}, {1, 5, 4, 4, 1, 1, 0, 4, 5}, {3, 5, 6, 5, 5, 1, 2, 0, 5},
		}},
		// Tables whose length is not a multiple of the 8-lane step: the
		// last lowering step and the last raising block are partial.
		{"plan_tails", plan, planTailGeoms(t)},
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
	cases = append(cases, contractCase{"sweep", either, sweep})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range tc.geoms {
				outH, outW := g.outSize()
				if onShift := planeShift(g.h, g.w, g.stride, outH, outW); tc.path == shift && !onShift || tc.path == plan && onShift {
					t.Fatalf("%v does not take the way its case is named for", g)
				}
			}
			forEachKernelGate(t, func(t *testing.T) {
				for _, g := range tc.geoms {
					checkLowerRaise(t, g)
				}
			})
		})
	}
}

// batchGeoms are the geometries of a batch-wide stretch or plan: 2, 8 and 16
// images of 1×1 to 8×8, under a 3×3 pad-1 window and a 1×1 one.
func batchGeoms() []convGeom {
	var gs []convGeom
	for _, n := range []int{2, 8, 16} {
		for _, side := range []int{1, 2, 4, 8} {
			gs = append(gs, convGeom{n, 3, side, side, 3, 1, 1, 0, 3}, convGeom{n, 3, side, side, 1, 1, 0, 0, 3})
		}
	}
	return gs
}

// stridedSameGeoms are strided 'same' windows: strides 2 and 3 under 3×3
// and 5×5 'same' windows (pad k/2), every side from 2 to 13 across each axis
// (the other axis 15 minus it, so odd and even sides meet in one geometry),
// at 1, 3, 8 and 16 images; then 3×3 windows at strides 4 and 5, which read
// two and three of each axis's four and five pixel parities.
func stridedSameGeoms() []convGeom {
	var gs []convGeom
	for _, n := range []int{1, 3, 8, 16} {
		for _, stride := range []int{2, 3} {
			for _, k := range []int{3, 5} {
				for side := 2; side <= 13; side++ {
					gs = append(gs, convGeom{n, 3, side, 15 - side, k, stride, k / 2, 0, 3})
				}
			}
		}
		for _, stride := range []int{4, 5} {
			for _, side := range []int{3, 7, 10} {
				gs = append(gs, convGeom{n, 3, side, side + 1, 3, stride, 1, 0, 3})
			}
		}
	}
	return gs
}

// planTailGeoms are plan geometries at 1, 3, 9 and 16 images — a 3×3
// stride-2 'same' window, a 1×1 stride-2 one, a 2×2 'valid' one and a 3×3
// 'same' one on a small map — over odd sides. Below 16 images only those are
// kept in which neither a channel's block of the matrix (kh·kw·n·outH·outW)
// nor its run of pixels (n·h·w) is a multiple of 8; at 16 both always are.
func planTailGeoms(t *testing.T) []convGeom {
	var gs []convGeom
	for _, n := range []int{1, 3, 9, 16} {
		for _, hw := range [][2]int{{3, 5}, {5, 3}, {1, 3}, {5, 7}} {
			for _, win := range [][3]int{{3, 2, 1}, {1, 2, 0}, {2, 1, 0}, {3, 1, 1}} {
				g := convGeom{n, 2, hw[0], hw[1], win[0], win[1], win[2], 0, 2}
				outH, outW := g.outSize()
				blk, px := g.matrixLen()/g.c, g.batchLen()/g.c
				if outH >= 1 && outW >= 1 && !planeShift(g.h, g.w, g.stride, outH, outW) && (n == 16 || blk%8 != 0 && px%8 != 0) {
					gs = append(gs, g)
				}
			}
		}
	}
	if len(gs) < 32 {
		t.Fatalf("only %d tail geometries", len(gs))
	}
	return gs
}

// planOf returns the plan Im2Col and Col2Im use for g.
func planOf(g convGeom) *gatherPlan {
	outH, outW := g.outSize()
	return planFor(g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW)
}

// TestPlansKeyedByGeometry holds the plan cache to its key: windows that
// differ only in stride, padding, window size or batch map different slots to
// different pixels, so each gets a plan of its own, and a geometry met twice
// reuses the plan built the first time.
func TestPlansKeyedByGeometry(t *testing.T) {
	base := convGeom{n: 3, c: 1, h: 6, w: 7, k: 3, stride: 2, pad: 1}
	first := planOf(base)
	for _, g := range []convGeom{
		{n: 3, c: 1, h: 6, w: 7, k: 3, stride: 3, pad: 1},
		{n: 3, c: 1, h: 6, w: 7, k: 3, stride: 2, pad: 0},
		{n: 3, c: 1, h: 6, w: 7, k: 1, stride: 2, pad: 1},
		{n: 2, c: 1, h: 6, w: 7, k: 3, stride: 2, pad: 1},
		{n: 3, c: 1, h: 6, w: 7, k: 3, stride: 1, pad: 1}, // a small map off the plane shift
	} {
		p := planOf(g)
		if p == first || slices.Equal(p.lower, first.lower) && slices.Equal(p.raise, first.raise) {
			t.Fatalf("%v and %v share a plan", g, base)
		}
	}
	if planOf(base) != first {
		t.Fatalf("%v met twice built its plan twice", base)
	}
}

// TestPlanCacheKeepsGeometriesInUse meets a training geometry between the
// builds of twice maxCachedGeoms others, each met once, as an evaluation's
// batch sizes are: the cache must stay within its bound by evicting those,
// and the training geometry must keep its plan and find it without
// allocating.
func TestPlanCacheKeepsGeometriesInUse(t *testing.T) {
	train := convGeom{n: 8, c: 1, h: 3, w: 3, k: 3, stride: 2, pad: 1}
	first := planOf(train)
	for n := 1; n <= 2*maxCachedGeoms; n++ {
		if planOf(train) != first {
			t.Fatalf("%v rebuilt after %d other batch sizes", train, n-1)
		}
		planOf(convGeom{n: 100 + n, c: 1, h: 3, w: 3, k: 3, stride: 2, pad: 1})
		if got := len(*planCache.m.Load()); got > maxCachedGeoms {
			t.Fatalf("the cache holds %d plans, above its bound %d", got, maxCachedGeoms)
		}
	}
	if planOf(train) != first {
		t.Fatalf("%v rebuilt", train)
	}
	if allocs := testing.AllocsPerRun(10, func() { planOf(train) }); allocs != 0 {
		t.Fatalf("a cached plan's lookup allocates %v times", allocs)
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
			{8, 5, 6, 6, 3, 2, 1, 0, 5}, {3, 5, 9, 8, 5, 3, 2, 0, 5}, // strided 'same': the plan
			// The plan with some of a channel's taps masked out: a 2×2
			// stride-1 window, a 1×1 stride-2 one (one tap, so a channel is
			// wholly in or out) and a 3×3 stride-2 one.
			{3, 5, 5, 6, 2, 1, 0, 0, 5}, {3, 5, 7, 5, 1, 2, 0, 0, 5}, {3, 5, 7, 6, 3, 2, 1, 0, 5},
		} {
			outH, outW := g.outSize()
			kk, ns := g.k*g.k, g.n*outH*outW
			rng := NewRNG(uint64(61 + g.k + g.stride))
			x := make([]float32, g.batchLen())
			rng.FillNorm(x, 1)
			full := make([]float32, g.matrixLen())
			Im2Col(full, x, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, identity(g.c), 0, g.c)

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
					Im2Col(cols, x, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, chans, lo, hi)
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
					Col2Im(dx, src, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, lo, hi, mask)
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
