package tensor

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n float32s whose last element is the last four bytes
// before an inaccessible page, so that a read or write one byte past the
// slice faults instead of passing unnoticed.
func guarded(t *testing.T, n int) []float32 {
	page := syscall.Getpagesize()
	mem := guardedMap(t, (4*n+page-1)/page*page+page, false)
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[len(mem)-page-4*n])), n)
}

// guardedFront returns n float32s whose first element is the first four bytes
// after an inaccessible page: guarded's mirror, for a read or write one byte
// before the slice.
func guardedFront(t *testing.T, n int) []float32 {
	page := syscall.Getpagesize()
	mem := guardedMap(t, page+(4*n+page-1)/page*page, true)
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), n)
}

// guardedMap maps size bytes and makes the first page (front) or the last one
// inaccessible.
func guardedMap(t *testing.T, size int, front bool) []byte {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap in a test
	guard := mem[size-page:]
	if front {
		guard = mem[:page]
	}
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem
}

// TestGemmStaysInsideOperands runs the outer-product kernels with every
// operand flush against a guard page: a tile loads sixteen or thirty-two
// floats a row and four or eight rows a strip, so an edge tile that was not
// masked (or a row alias that was not clamped) would run off the end of c, a
// or b here and fault.
func TestGemmStaysInsideOperands(t *testing.T) {
	pinKernelThreads(t, 1)
	rng := NewRNG(49)
	for _, sh := range convShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, c := guarded(t, m*k), guarded(t, k*n), guarded(t, m*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		for _, transA := range []bool{false, true} {
			want := make([]float32, m*n)
			gemmRef(want, a, b, m, k, n, transA, false)
			clear(c)
			Gemm(c, a, b, m, k, n, transA, false)
			if d := maxAbsDiff(c, want); d > 1e-3*math.Sqrt(float64(k)) {
				t.Errorf("m%d k%d n%d tA%v: max abs diff %g", m, k, n, transA, d)
			}
			acc := append([]float32(nil), c...) // the write form stores where the accumulating one loads
			GemmPart(c, a, b, m, k, n, transA, m*k*n, true)
			sameFloats(t, fmt.Sprintf("write m%d k%d n%d tA%v", m, k, n, transA), c, acc)
			for i := range a { // the zero-skipping route and its row primitive
				if i%10 != 0 {
					a[i] = 0
				}
			}
			clear(want)
			gemmRef(want, a, b, m, k, n, transA, false)
			clear(c)
			Gemm(c, a, b, m, k, n, transA, false)
			if d := maxAbsDiff(c, want); d > 1e-3*math.Sqrt(float64(k)) {
				t.Errorf("sparse m%d k%d n%d tA%v: max abs diff %g", m, k, n, transA, d)
			}
			rng.FillNorm(a, 1)
		}
	}
	// Every last-tile width of the 4×32 and 4×16 tiles, alone and after a
	// whole tile, on aliased rows (3) and with a row left over from the
	// eight-row tiles (9), and the eight-row tiles' widths (8): on each tier
	// the CPU has, the part's volume sending it to the kernels.
	forEachKernelGate(t, func(t *testing.T) {
		for _, m := range []int{3, 8, 9} {
			for n := 1; n < 64; n++ {
				const k = 5
				a, b, c := guarded(t, m*k), guarded(t, k*n), guarded(t, m*n)
				rng.FillNorm(a, 1)
				rng.FillNorm(b, 1)
				for _, transA := range []bool{false, true} {
					want := make([]float32, m*n)
					gemmRef(want, a, b, m, k, n, transA, false)
					for _, write := range []bool{false, true} {
						if !write {
							clear(c)
						}
						GemmPart(c, a, b, m, k, n, transA, gemmSmall+1, write)
						if d := maxAbsDiff(c, want); d > 1e-5 {
							t.Errorf("tail m%d n%d tA%v write %v: max abs diff %g", m, n, transA, write, d)
						}
					}
				}
			}
		}
	})
	// AddTransposed's 8×8 blocks load eight floats a row of src and add eight
	// a row of dst: its last block ends flush with both.
	for _, sh := range [][2]int{{16, 24}, {13, 17}, {576, 64}} {
		m, n := sh[0], sh[1]
		src, dst := guarded(t, m*n), guarded(t, n*m)
		rng.FillNorm(src, 1)
		want := make([]float32, n*m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				want[j*m+i] = src[i*n+j]
			}
		}
		clear(dst)
		AddTransposed(dst, m, src, m, n)
		if d := maxAbsDiff(dst, want); d != 0 {
			t.Errorf("transpose m%d n%d: max abs diff %g", m, n, d)
		}
	}
}

// TestTransposeRowsStaysInsideOperands runs TransposeRows with the source and
// the destination flush against a guard page, behind them and then in front
// of them: the last row of the source, read to its last pixel, ends at the
// page, or the first, read from pixel 0, starts at it, and the destination is
// exactly as long as the transpose. An 8×8 block loads eight floats of each of
// eight rows and stores eight of eight destination rows, so a block that ran
// past the pixels or rows it was given would fault here. Results are held to
// the Go form bit for bit.
func TestTransposeRowsStaysInsideOperands(t *testing.T) {
	rng := NewRNG(68)
	for _, alloc := range []func(*testing.T, int) []float32{guarded, guardedFront} {
		for _, sh := range [][2]int{{8, 8}, {16, 64}, {9, 17}, {19, 31}, {64, 32}} {
			nr, ns := sh[0], sh[1]
			const c = 70
			src := alloc(t, c*ns)
			rng.FillNorm(src, 1)
			rows := []int{c - 1, 0}
			for len(rows) < nr {
				rows = append(rows, 1+len(rows)*3%(c-2))
			}
			for _, lo := range []int{0, ns % 8} {
				np, ld := ns-lo, nr
				dst := alloc(t, (np-1)*ld+nr)
				want := make([]float32, len(dst))
				goForm := func() {
					prev := hasDot4
					hasDot4 = false
					defer func() { hasDot4 = prev }()
					TransposeRows(want, ld, src, rows, ns, lo, ns)
				}
				goForm()
				TransposeRows(dst, ld, src, rows, ns, lo, ns)
				sameFloats(t, fmt.Sprintf("rows %d pixels [%d, %d)", nr, lo, ns), dst, want)
			}
		}
	}
}

// TestIntegratorKernelsStayInsideOperands runs Gram and AxpyRows with every
// row (and AxpyRows' dst and x) flush against a guard page, behind it and
// then in front of it: the kernels step four or eight floats at a time up to
// the last whole step and leave the tail to Go, so a block or a tail that
// ran one float long would fault here.
func TestIntegratorKernelsStayInsideOperands(t *testing.T) {
	rng := NewRNG(65)
	for _, alloc := range []func(*testing.T, int) []float32{guarded, guardedFront} {
		for _, n := range []int{4, 7, 8, 515, 4099} {
			rows := make([][]float32, 12)
			for i := range rows {
				rows[i] = alloc(t, n)
				rng.FillNorm(rows[i], 1)
			}
			for m := 1; m <= len(rows); m++ {
				prod := make([]float64, m*(m+1)/2)
				Gram(prod, rows[:m])
				for i := range m {
					for j := 0; j <= i; j++ {
						if got, want := prod[i*(i+1)/2+j], DotSlice(rows[i], rows[j]); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n%d m%d: product (%d,%d) = %v, DotSlice gives %v", n, m, i, j, got, want)
						}
					}
				}
			}
			dst := alloc(t, n)
			coef := []float32{0.5, -1.25, 3}
			AxpyRows(dst, rows[0], coef, rows[1:4], 0.75)
			want := axpyRowsRef(rows[0], coef, rows[1:4], 0.75)
			for p := range want {
				if math.Float32bits(dst[p]) != math.Float32bits(want[p]) {
					t.Fatalf("n%d: AxpyRows element %d = %v, want %v", n, p, dst[p], want[p])
				}
			}
		}
	}
}

// TestLoweringStaysInsideOperands runs Im2Col and Col2Im with x, cols, dcols
// and dx each flush against a guard page, behind them and then in front of
// them, on both ways a channel moves: a plane-shift stretch starts at the
// channel run's first pixel when the tap is the window's first and ends at
// its last when the tap is the window's last — batch-wide, the first float of
// the first channel and the last float of the last — and a plan's last
// lowering step and last raising block are partial where a channel's block of
// the matrix or run of pixels is not a multiple of 8, the other places a read
// or write one float too far would land. The kernels themselves are then run
// on their own, every tail against the page (checkMaskedRowKernels,
// checkPlanKernels).
func TestLoweringStaysInsideOperands(t *testing.T) {
	pinKernelThreads(t, 1)
	for _, g := range []convGeom{
		{3, 2, 5, 7, 3, 1, 1, 0, 2}, // 'same': plane shift
		{3, 2, 5, 7, 3, 2, 1, 0, 2}, // strided 'same': plan
		{3, 2, 7, 7, 3, 2, 1, 0, 2}, // strided 'same', odd side both ways: plan
		{3, 2, 5, 7, 1, 2, 0, 0, 2}, // strided 1×1: plan
		{3, 2, 6, 7, 3, 2, 0, 0, 2}, // strided 'valid': plan
		{8, 2, 4, 4, 3, 1, 1, 0, 2}, // 'same', eight 4×4 images a stretch
		{2, 2, 3, 3, 3, 1, 1, 0, 2}, // 'same' on a 3×3 map: plan, 162-slot blocks, 18-pixel runs
		{5, 2, 6, 5, 3, 1, 1, 0, 2}, // 'same', stretches of 118 to 150: 32-float steps, then tails
		{1, 2, 3, 5, 3, 2, 1, 0, 2}, // plan, 54-slot blocks and 15-pixel runs: both tails
		{9, 2, 2, 2, 2, 1, 0, 0, 2}, // plan, 'valid' 2×2 over nine 2×2 images: 36-slot blocks and runs
		{3, 2, 2, 3, 5, 1, 2, 0, 2}, // plan, a window larger than the input
		{1, 2, 1, 1, 7, 2, 3, 0, 2}, // plan, one pixel under a 7×7 window
	} {
		for _, side := range []struct {
			name  string
			alloc func(*testing.T, int) []float32
		}{{"guard behind", guarded}, {"guard in front", guardedFront}} {
			t.Run(fmt.Sprintf("%v/%s", g, side.name), func(t *testing.T) {
				checkInsideOperands(t, g, side.alloc)
			})
		}
	}
	t.Run("masked row kernels", checkMaskedRowKernels)
	t.Run("plan kernels", checkPlanKernels)
}

// checkPlanKernels runs the gather-plan kernels with every operand — the
// channel's planes and block of the matrix, the lowering table, the raising
// table's ends, taps and offsets, and the row mask — flush against a guard
// page, behind it and then in front of it, over plans whose tables end in
// every tail length. The AVX2 forms are held to the Go forms, bit for bit;
// half of the taps are dead in a second raise, whose entries must then go
// unread (their slots are NaN).
func checkPlanKernels(t *testing.T) {
	if !hasDot4 {
		t.Skip("no AVX2+FMA kernels on this machine")
	}
	t.Cleanup(func() { hasDot4 = true })
	goForm := func(fn func()) {
		hasDot4 = false
		fn()
		hasDot4 = true
	}
	rng := NewRNG(52)
	for _, g := range []convGeom{
		{1, 1, 3, 5, 3, 2, 1, 0, 1}, {3, 1, 3, 5, 1, 2, 0, 0, 1}, {1, 1, 1, 1, 1, 1, 0, 0, 1},
		{2, 1, 3, 3, 3, 1, 1, 0, 1}, {9, 1, 3, 5, 2, 1, 0, 0, 1}, {5, 1, 7, 3, 3, 2, 1, 0, 1},
		{1, 1, 2, 3, 5, 1, 2, 0, 1}, {3, 1, 4, 7, 5, 3, 2, 0, 1}, {16, 1, 2, 2, 3, 1, 1, 0, 1},
	} {
		outH, outW := g.outSize()
		kk, blk, px := g.k*g.k, g.matrixLen(), g.batchLen()
		p := buildPlan(g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW)
		for _, front := range []bool{false, true} {
			alloc := guarded
			if front {
				alloc = guardedFront
			}
			gp := &gatherPlan{
				lower: guardedCopy(t, p.lower, front), raise: guardedCopy(t, p.raise, front),
				ends: guardedCopy(t, p.ends, front), taps: guardedCopy(t, p.taps, front),
				all: guardedCopy(t, p.all, front),
			}
			what := fmt.Sprintf("%v front=%v", g, front)
			x, cols, want := alloc(t, px), alloc(t, blk), make([]float32, blk)
			rng.FillNorm(x, 1)
			goForm(func() { planLower(want, x, gp.lower) })
			planLower(cols, x, gp.lower)
			sameFloats(t, what+" lower", cols, want)

			dcols, dx, wantDx := alloc(t, blk), alloc(t, px), make([]float32, px)
			rng.FillNorm(dcols, 1)
			goForm(func() { planRaise(wantDx, dcols, gp, gp.all) })
			planRaise(dx, dcols, gp, gp.all)
			sameFloats(t, what+" raise", dx, wantDx)

			live := guardedOf[bool](t, kk, front)
			for tap := range live {
				live[tap] = tap%2 == 0
				if !live[tap] {
					for j := range dcols[tap*blk/kk : (tap+1)*blk/kk] {
						dcols[tap*blk/kk+j] = float32(math.NaN())
					}
				}
			}
			goForm(func() { planRaise(wantDx, dcols, gp, live) })
			planRaise(dx, dcols, gp, live)
			sameFloats(t, what+" raise, odd taps dead", dx, wantDx)
			for j, v := range dx {
				if v != v {
					t.Fatalf("%s: a dead tap reached pixel %d", what, j)
				}
			}
		}
	}
}

// guardedCopy returns a copy of s flush against an inaccessible page: behind
// its last element, or in front of its first when front is set.
func guardedCopy[T any](t *testing.T, s []T, front bool) []T {
	g := guardedOf[T](t, len(s), front)
	copy(g, s)
	return g
}

// checkMaskedRowKernels runs the plane-shift row kernels with dst, src and
// the mask each flush against a guard page, behind them and then in front of
// them: every tail length of an eight-float step after the 32-float steps,
// from start offsets all over the mask, with the mask exactly period + 32
// entries long, the slack its contract promises the kernels read within. The
// AVX2 forms are held to the Go forms, bit for bit.
func checkMaskedRowKernels(t *testing.T) {
	if !hasDot4 {
		t.Skip("no AVX2+FMA kernels on this machine")
	}
	t.Cleanup(func() { hasDot4 = true })
	goForm := func(fn func()) {
		hasDot4 = false
		fn()
		hasDot4 = true
	}
	rng := NewRNG(51)
	for _, period := range []int{32, 36, 50} {
		for _, front := range []bool{false, true} {
			alloc := guarded
			if front {
				alloc = guardedFront
			}
			mask := guardedOf[uint32](t, period+32, front)
			for i := range mask {
				if rng.Float64() < 0.7 {
					mask[i] = ^uint32(0)
				}
			}
			for i := period; i < len(mask); i++ {
				mask[i] = mask[i-period] // the slack repeats the period, as masksFor builds it
			}
			for n := 1; n <= 3*period; n++ {
				dst, src := alloc(t, n), alloc(t, n)
				rng.FillNorm(src, 1)
				for q := 0; q < period; q += 7 {
					want := make([]float32, n)
					goForm(func() { maskCopy(want, src, mask, q, period) })
					maskCopy(dst, src, mask, q, period)
					sameFloats(t, fmt.Sprintf("copy period %d n %d q %d", period, n, q), dst, want)
					goForm(func() { maskAdd(want, src, mask, q, period) })
					maskAdd(dst, src, mask, q, period)
					sameFloats(t, fmt.Sprintf("add period %d n %d q %d", period, n, q), dst, want)
				}
			}
		}
	}
}

// guardedOf returns n values of type T flush against an inaccessible page:
// behind the last one, or in front of the first when front is set.
func guardedOf[T any](t *testing.T, n int, front bool) []T {
	size := int(unsafe.Sizeof(*new(T)))
	page := syscall.Getpagesize()
	mem := guardedMap(t, (size*n+page-1)/page*page+page, front)
	off := len(mem) - page - size*n
	if front {
		off = page
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[off])), n)
}

func checkInsideOperands(t *testing.T, g convGeom, alloc func(*testing.T, int) []float32) {
	x, cols := alloc(t, g.batchLen()), alloc(t, g.matrixLen())
	dx, dcols := alloc(t, g.batchLen()), alloc(t, g.matrixLen())
	rng := NewRNG(50)
	rng.FillNorm(x, 1)
	rng.FillNorm(dcols, 1)
	wantCols, wantDx := make([]float32, len(cols)), make([]float32, len(dx))
	g.forEachSlot(0, g.c, func(slot, pixel int) {
		if pixel >= 0 {
			wantCols[slot] = x[pixel]
			wantDx[pixel] += dcols[slot]
		}
	})
	g.lowerOver(cols, x)
	sameBits(t, "cols", g, cols, wantCols)
	g.raiseOver(dx, dcols)
	sameBits(t, "dx", g, dx, wantDx)

	// Lowering into slots: a matrix of the second channel alone, flush
	// against the page, must hold its rows of the full one and be all the
	// routine writes. Raising under a mask: every third row is NaN and masked
	// out, so reading one would poison its plane.
	outH, outW := g.outSize()
	chans := []int{1}
	rowLen := g.matrixLen() / (g.c * g.k * g.k)
	slots := alloc(t, len(chans)*g.k*g.k*rowLen)
	Im2Col(slots, x, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, chans, 0, len(chans))
	for s, ch := range chans {
		sameBits(t, "slot", g, slots[s*g.k*g.k*rowLen:(s+1)*g.k*g.k*rowLen], wantCols[ch*g.k*g.k*rowLen:(ch+1)*g.k*g.k*rowLen])
	}
	rng.FillNorm(dcols, 1)
	mask := make([]bool, g.c*g.k*g.k)
	for r := range mask {
		mask[r] = r%3 != 0
		if !mask[r] {
			for j := range dcols[r*rowLen : (r+1)*rowLen] {
				dcols[r*rowLen+j] = float32(math.NaN())
			}
		}
	}
	clear(wantDx)
	g.forEachSlot(0, g.c, func(slot, pixel int) {
		if pixel >= 0 && mask[slot/rowLen] {
			wantDx[pixel] += dcols[slot]
		}
	})
	Col2Im(dx, dcols, g.n, g.h, g.w, g.k, g.k, g.stride, g.pad, outH, outW, 0, g.c, mask)
	sameBits(t, "masked dx", g, dx, wantDx)
}

// TestElementwiseKernelsStayInsideOperands runs every per-element kernel, and
// the little-endian run kernels and the fold's kernels over them, with every
// operand flush against a guard page, behind it and then in front of it: the AVX2 forms step eight floats
// (a reduction, four floats of eight rows) up to the last whole step and
// leave the rest to Go, so a step that ran one element long, or a row
// pointer one row too far, would fault here. The results are held to the
// scalar loops, bit for bit.
func TestElementwiseKernelsStayInsideOperands(t *testing.T) {
	rng := NewRNG(66)
	for _, front := range []bool{false, true} {
		alloc := guarded
		if front {
			alloc = guardedFront
		}
		filled := func(n int) []float32 {
			x := alloc(t, n)
			rng.FillNorm(x, 1)
			return x
		}
		for _, n := range []int{8, 12, 15, 1152, 1157} {
			what := fmt.Sprintf("front=%v n=%d", front, n)
			x, g, v := filled(n), filled(n), filled(n)
			y, want := alloc(t, n), make([]float32, n)
			ReLU(y, x)
			refReLU(want, x)
			requireBits32(t, what+" ReLU", y, want, false)
			ReLUGrad(y, g, x)
			refReLUGrad(want, g, x)
			requireBits32(t, what+" ReLUGrad", y, want, false)
			Add(y, x, g)
			refAdd(want, x, g)
			requireBits32(t, what+" Add", y, want, false)
			copy(want, y)
			AxpySlice(y, 0.3137, x)
			refAxpy(want, 0.3137, x)
			requireBits32(t, what+" AxpySlice", y, want, false)
			ScaleSlice(y, 0.7)
			refScale(want, 0.7)
			requireBits32(t, what+" ScaleSlice", y, want, false)
			ScaleShift(y, x, 0.7, -0.2)
			refScaleShift(want, x, 0.7, -0.2)
			requireBits32(t, what+" ScaleShift", y, want, false)
			xhat, wantXHat := alloc(t, n), make([]float32, n)
			BatchNormNormalize(xhat, y, x, 0.1, 1.3, 0.9, 0.2)
			refNormalize(wantXHat, want, x, 0.1, 1.3, 0.9, 0.2)
			requireBits32(t, what+" BatchNormNormalize xhat", xhat, wantXHat, false)
			requireBits32(t, what+" BatchNormNormalize y", y, want, false)
			BatchNormGrad(y, g, xhat, 1.1, 0.05, -0.3)
			refBNGrad(want, g, xhat, 1.1, 0.05, -0.3)
			requireBits32(t, what+" BatchNormGrad", y, want, false)

			mask := guardedOf[bool](t, n, front)
			for i := range mask {
				mask[i] = i%3 != 0
			}
			w, wantW, wantV := filled(n), make([]float32, n), append([]float32(nil), v...)
			copy(wantW, w)
			SGDStepMasked(w, g, mask, 0.03, 5e-4)
			refSGDMasked(wantW, g, mask, 0.03, 5e-4)
			requireBits32(t, what+" SGDStepMasked", w, wantW, false)
			SGDStep(w, g, 0.03, 5e-4)
			refSGD(wantW, g, 0.03, 5e-4)
			requireBits32(t, what+" SGDStep", w, wantW, false)
			SGDMomentumStep(w, v, g, 0.03, 5e-4, 0.9)
			refSGDMomentum(wantW, wantV, g, 0.03, 5e-4, 0.9)
			requireBits32(t, what+" SGDMomentumStep", w, wantW, false)
			requireBits32(t, what+" SGDMomentumStep velocity", v, wantV, false)
		}
		// The reductions read eight rows of a run each: the block's last row
		// ends flush with the batch behind, its first starts flush in front.
		for _, run := range []int{4, 7, 8, 1152, 1153} {
			for _, c := range []int{8, 9} {
				what := fmt.Sprintf("front=%v run=%d c=%d", front, run, c)
				x, xhat := filled(c*run), filled(c*run)
				got, got2 := make([]float64, c), make([]float64, c)
				want, want2 := make([]float64, c), make([]float64, c)
				BatchNormMoments(got, got2, x)
				refMoments(want, want2, x)
				requireBits64(t, what+" BatchNormMoments mean", got, want)
				requireBits64(t, what+" BatchNormMoments variance", got2, want2)
				BatchNormGradSums(got, got2, x, xhat)
				refGradSums(want, want2, x, xhat)
				requireBits64(t, what+" BatchNormGradSums sumDy", got, want)
				requireBits64(t, what+" BatchNormGradSums sumDyXHat", got2, want2)
			}
		}
		// The little-endian run kernels step 32 bytes, four vectors while
		// four remain: every tail after zero to two four-vector steps. The
		// encoder runs with no zero (its testing loops to the end), with a
		// +0 first (its copy-only loops to the end) and with one opening the
		// last whole vector.
		for n := 1; n <= 72; n++ {
			for _, zero := range []int{-1, 0, max(n&^7-8, 0)} {
				what := fmt.Sprintf("front=%v n=%d zero at %d", front, n, zero)
				src := guardedCopy(t, leVector(rng, n), front)
				if zero >= 0 {
					src[zero] = 0
				}
				dst, want := guardedOf[byte](t, 4*n, front), make([]byte, 4*n)
				refPutLE(want, src)
				if m, wantM := PutFloat32sLE(dst, src), refZeroFree(src); m != wantM || string(dst) != string(want) {
					t.Fatalf("%s: PutFloat32sLE reported %d (want %d) or wrote other bytes", what, m, wantM)
				}
				got := alloc(t, n)
				GetFloat32sLE(got, dst)
				requireBits32(t, what+" GetFloat32sLE", got, src, false)
				// The fold's kernels read the run flush against the page
				// and fold into a dst flush against one too.
				acc := filled(n)
				folded := slices.Clone(acc)
				AxpySlice(folded, 0.5, src)
				AxpyFloat32sLE(acc, 0.5, dst)
				requireBits32(t, what+" AxpyFloat32sLE", acc, folded, false)
				clear(folded)
				AxpySlice(folded, 0.5, src)
				AxpyWriteFloat32sLE(acc, 0.5, dst)
				requireBits32(t, what+" AxpyWriteFloat32sLE", acc, folded, false)
				AxpyWriteSlice(acc, 0.5, src)
				requireBits32(t, what+" AxpyWriteSlice", acc, folded, false)
			}
		}
	}
}
