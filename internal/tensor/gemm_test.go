package tensor

import (
	"fmt"
	"math"
	"testing"
)

// gemmRef is the plain triple loop the optimised kernels are checked against.
func gemmRef(c, a, b []float32, m, k, n int, transA, transB bool) {
	at := func(i, p int) float32 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(at(i, p)) * float64(bt(p, j))
			}
			c[i*n+j] += float32(s)
		}
	}
}

func maxAbsDiff(a, b []float32) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// gemmVariants are the (transA, transB) pairs Gemm accepts.
var gemmVariants = [][2]bool{{false, false}, {true, false}, {false, true}}

// pinKernelThreads sets the kernel-thread budget for the rest of the test
// and restores the previous setting through t.Cleanup.
func pinKernelThreads(t testing.TB, n int) {
	prev := SetKernelThreads(n)
	t.Cleanup(func() { SetKernelThreads(prev) })
}

// setKernelGate switches the AVX2 kernels on or off for the rest of the test
// and restores the detected value through t.Cleanup, so that a shuffled
// order cannot leak the fallback into another test. Turning them on where
// the CPU lacks them skips the test.
func setKernelGate(t testing.TB, on bool) {
	if on && !hasDot4 {
		t.Skip("no AVX2+FMA kernels on this machine")
	}
	prev := hasDot4
	hasDot4 = on
	t.Cleanup(func() { hasDot4 = prev })
}

// setAVX512Gate switches the AVX-512 tiles on or off for the rest of the
// test as setKernelGate does the AVX2 kernels; off leaves the AVX2 tiles
// running. Turning them on where the CPU lacks AVX-512F skips the test.
func setAVX512Gate(t testing.TB, on bool) {
	if on && !hasAVX512 {
		t.Skip("no AVX-512F tiles on this machine")
	}
	prev := hasAVX512
	hasAVX512 = on
	t.Cleanup(func() { hasAVX512 = prev })
}

// forEachKernelGate runs fn once for every kernel tier the CPU has: as
// detected, then with the AVX-512 tiles off where they were on (the AVX2
// tiles), then with the gate off where the AVX2 kernels were on (the pure-Go
// forms), so every form is exercised on the one machine.
func forEachKernelGate(t *testing.T, fn func(t *testing.T)) {
	t.Run("detected", fn)
	if hasAVX512 {
		t.Run("avx2", func(t *testing.T) {
			setAVX512Gate(t, false)
			fn(t)
		})
	}
	if hasDot4 {
		t.Run("gate-off", func(t *testing.T) {
			setKernelGate(t, false)
			fn(t)
		})
	}
}

// convShapes are the !transB products of the CI-scale ResNet18 at batch 8 as
// (m, k, n) — forward W × cols is {8, 72, 2048} and {64, 576, 32}, the input
// gradient Wᵀ × dY (run with transA) {72, 8, 2048} and {576, 64, 32}, the
// weight gradient dWᵀ = cols × dYᵀ {72, 2048, 8} and {576, 32, 64} — and then
// one shape per edge class of the outer-product tile: m below and not a
// multiple of the tile height, n below and not a multiple of 16, n at or
// under the half-width tile's 8 (alone or after whole tiles), k = 1.
var convShapes = [][3]int{
	{8, 72, 2048}, {72, 8, 2048}, {576, 64, 32}, {64, 576, 32}, {72, 2048, 8}, {576, 32, 64},
	{5, 8, 23}, {7, 3, 17}, {4, 1, 16}, {3, 9, 15}, {2, 40, 9}, {1, 9, 2100},
	// Above gemmSmall, so that the kernels and not the direct loop see them.
	{5, 40, 87}, {7, 30, 81}, {4, 1, 4112}, {3, 90, 63}, {2, 900, 10}, {70, 33, 8},
	{27, 700, 1}, {9, 600, 2}, {6, 400, 24}, {13, 300, 5},
}

// TestGemmAgainstReference cross-checks the kernels against the naive triple
// loop for every transpose variant, over shapes chosen to hit all the edge
// cases: micro-tile remainders, block remainders, the small-problem direct
// path, shapes larger than one cache block or tall enough to be k-blocked,
// and the batch-wide conv shapes.
func TestGemmAgainstReference(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		pinKernelThreads(t, 4)
		rng := NewRNG(42)
		shapes := append([][3]int{
			{1, 1, 1}, {1, 7, 1}, {3, 5, 2}, {4, 4, 4}, {5, 9, 6},
			{17, 31, 13}, {32, 144, 256}, {33, 65, 67}, {64, 64, 64},
			{64, 250, 100}, {100, 300, 50}, {8, 1024, 100}, {70, 500, 70},
			{8, 27, 600}, {72, 8, 525}, {6, 70, 8200},
		}, convShapes...)
		for _, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, v := range gemmVariants {
				transA, transB := v[0], v[1]
				name := fmt.Sprintf("m%d_k%d_n%d_tA%v_tB%v", m, k, n, transA, transB)
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				rng.FillNorm(a, 1)
				rng.FillNorm(b, 1)
				// Non-zero initial C exercises the accumulate contract.
				got := make([]float32, m*n)
				want := make([]float32, m*n)
				rng.FillNorm(got, 1)
				copy(want, got)
				Gemm(got, a, b, m, k, n, transA, transB)
				gemmRef(want, a, b, m, k, n, transA, transB)
				if d := maxAbsDiff(got, want); d > 1e-3*math.Sqrt(float64(k)) {
					t.Errorf("%s: max abs diff %g", name, d)
				}
			}
		}
	})
}

// TestGemmAccumulates pins the C += contract exactly: with small-integer
// operands every product and partial sum is representable, so each form —
// fused or not, whatever its summation order — must land on the integer
// reference added to the incoming C, bit for bit.
func TestGemmAccumulates(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		pinKernelThreads(t, 1)
		rng := NewRNG(45)
		ints := func(n int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = float32(rng.Intn(7) - 3)
			}
			return v
		}
		for _, sh := range [][3]int{{2, 2, 2}, {8, 72, 2048}, {72, 8, 2048}, {33, 65, 67}, {5, 40, 87}, {6, 70, 8200}} {
			m, k, n := sh[0], sh[1], sh[2]
			for _, v := range gemmVariants {
				transA, transB := v[0], v[1]
				a, b, got := ints(m*k), ints(k*n), ints(m*n)
				want := append([]float32(nil), got...)
				gemmRef(want, a, b, m, k, n, transA, transB)
				Gemm(got, a, b, m, k, n, transA, transB)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("m%d k%d n%d tA%v tB%v: C[%d] = %v, want %v", m, k, n, transA, transB, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestGemmFMAFallbackAgree cross-checks the AVX2 kernels against the
// pure-Go loops (they differ only in rounding and summation order, so
// agreement is to tolerance). Skipped on machines without the kernels.
func TestGemmFMAFallbackAgree(t *testing.T) {
	setKernelGate(t, true)
	rng := NewRNG(77)
	for _, sh := range [][3]int{{32, 144, 256}, {33, 65, 67}, {16, 1024, 100}, {72, 8, 2048}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		for _, v := range gemmVariants {
			transA, transB := v[0], v[1]
			hasDot4 = true
			fast := make([]float32, m*n)
			Gemm(fast, a, b, m, k, n, transA, transB)
			hasDot4 = false
			slow := make([]float32, m*n)
			Gemm(slow, a, b, m, k, n, transA, transB)
			if d := maxAbsDiff(fast, slow); d > 1e-3*math.Sqrt(float64(k)) {
				t.Errorf("m%d k%d n%d tA%v tB%v: FMA vs fallback diff %g", m, k, n, transA, transB, d)
			}
		}
	}
}

// TestGemmSparseAgainstReference checks the zero-skipping path used for
// FedKNOW's sparse knowledge models.
func TestGemmSparseAgainstReference(t *testing.T) {
	rng := NewRNG(43)
	m, k, n := 32, 144, 256
	for _, transA := range []bool{false, true} {
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		// ~90 % sparsity, like a ρ=10 % knowledge store.
		for i := range a {
			if rng.Float64() < 0.9 {
				a[i] = 0
			}
		}
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Gemm(got, a, b, m, k, n, transA, false)
		gemmRef(want, a, b, m, k, n, transA, false)
		if d := maxAbsDiff(got, want); d > 1e-3 {
			t.Errorf("sparse transA=%v: max abs diff %g", transA, d)
		}
	}
}

// TestGemmSparseRouteMatchesDenseBitwise forces a ρ = 10 % op(A) down the
// zero-skipping route and down the dense one and requires identical bits:
// both are the same multiply-add chain per element, and for finite operands
// a skipped zero multiplier is an exact no-op. That is what makes
// sparseEnough's sampled decision a matter of speed only.
func TestGemmSparseRouteMatchesDenseBitwise(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		pinKernelThreads(t, 1)
		rng := NewRNG(46)
		for _, sh := range append([][3]int{{32, 144, 256}, {6, 70, 8200}}, convShapes...) {
			m, k, n := sh[0], sh[1], sh[2]
			for _, transA := range []bool{false, true} {
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				rng.FillNorm(a, 1)
				rng.FillNorm(b, 1)
				for i := range a {
					if rng.Float64() < 0.9 {
						a[i] = 0
					}
				}
				sparse := make([]float32, m*n)
				rng.FillNorm(sparse, 1)
				dense := append([]float32(nil), sparse...)
				gemmSparseARows(sparse, a, b, m, k, n, transA, false, 0, m)
				if hasDot4 {
					gemmOuter(dense, a, b, m, k, n, transA, false, false)
				} else {
					gemmDirect(dense, a, b, m, k, n, transA, false, false, 0, m)
				}
				for i := range dense {
					if math.Float32bits(sparse[i]) != math.Float32bits(dense[i]) {
						t.Fatalf("m%d k%d n%d tA%v: routes differ at %d: sparse %v dense %v",
							m, k, n, transA, i, sparse[i], dense[i])
					}
				}
			}
		}
	})
}

// sparseEnoughFull is sparseEnough as it stood before it stopped early:
// every probe of the sample is counted, then judged.
func sparseEnoughFull(a []float32) bool {
	zeros := 0
	if len(a) > 512 {
		step := len(a) / 128
		probes := 0
		for i := 0; i < len(a); i += step {
			if a[i] == 0 {
				zeros++
			}
			probes++
		}
		return zeros*10 >= probes*6
	}
	for _, v := range a {
		if v == 0 {
			zeros++
		}
	}
	return zeros*10 >= len(a)*6
}

// TestSparseEnoughStopsAtTheFullVerdict holds the early-stopping sample to
// the whole sample's verdict: with 128 probes at the 76/77-zero boundary,
// the zeros placed first, last or interleaved; at every length 513–1024,
// where the stride leaves 128 to 171 probes, at every zero share around
// 60 %; and on short operands, which are counted whole.
func TestSparseEnoughStopsAtTheFullVerdict(t *testing.T) {
	check := func(what string, a []float32) {
		t.Helper()
		if got, want := sparseEnough(a), sparseEnoughFull(a); got != want {
			t.Fatalf("%s: sparseEnough %v, the full sample %v", what, got, want)
		}
	}
	// build returns n ones with the probes (stride step) that zero picks
	// cleared.
	build := func(n, step int, zero func(probe int) bool) []float32 {
		a := make([]float32, n)
		for i := range a {
			a[i] = 1
		}
		for p, i := 0, 0; i < n; p, i = p+1, i+step {
			if zero(p) {
				a[i] = 0
			}
		}
		return a
	}
	const n, step = 1280, 10 // 128 probes
	for _, zeros := range []int{76, 77} {
		check(fmt.Sprintf("%d zeros first", zeros), build(n, step, func(p int) bool { return p < zeros }))
		check(fmt.Sprintf("%d zeros last", zeros), build(n, step, func(p int) bool { return p >= 128-zeros }))
		check(fmt.Sprintf("%d zeros interleaved", zeros), build(n, step, func(p int) bool { return p*zeros/128 != (p+1)*zeros/128 }))
	}
	rng := NewRNG(52)
	for n := 513; n <= 1024; n++ {
		step := n / 128
		probes := (n + step - 1) / step
		for zeros := probes*6/10 - 2; zeros <= probes*6/10+2; zeros++ {
			perm := rng.Perm(probes)
			check(fmt.Sprintf("n=%d %d of %d probes zero", n, zeros, probes),
				build(n, step, func(p int) bool { return perm[p] < zeros }))
		}
	}
	for n := 0; n <= 40; n++ {
		for zeros := 0; zeros <= n; zeros++ {
			perm := rng.Perm(n)
			check(fmt.Sprintf("n=%d %d zeros", n, zeros), build(n, 1, func(p int) bool { return perm[p] < zeros }))
		}
	}
}

// TestGemmPartMatchesWholeBitwise holds GemmPart to its contract on the three
// products of a convolution. The whole product has exactly-zero rows in its
// operands (dead channels); the part is the same product with those rows
// gathered out — fewer k terms in the forward and input-gradient forms, fewer
// rows and columns of C in the weight-gradient form dWᵀ = cols × dYᵀ — told
// the whole's volume. Every element the part computes must carry the whole's
// bits, at part sizes on both sides of gemmSmall, with a row or column count
// at or under the half-width tile's 8, and through GemmPartDense as through
// GemmPart.
func TestGemmPartMatchesWholeBitwise(t *testing.T) {
	// gather copies the listed rows (each of the given width) of src.
	gather := func(src []float32, width int, rows []int) []float32 {
		out := make([]float32, 0, len(rows)*width)
		for _, r := range rows {
			out = append(out, src[r*width:(r+1)*width]...)
		}
		return out
	}
	// zeroRowsExcept clears every row of src that keep does not list.
	zeroRowsExcept := func(src []float32, width int, keep []int) {
		kept := make(map[int]bool)
		for _, r := range keep {
			kept[r] = true
		}
		for r := 0; r*width < len(src); r++ {
			if !kept[r] {
				clear(src[r*width : (r+1)*width])
			}
		}
	}
	same := func(t *testing.T, what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d = %v, the whole product has %v", what, i, got[i], want[i])
			}
		}
	}
	forEachKernelGate(t, func(t *testing.T) {
		rng := NewRNG(52)
		for _, sh := range []struct {
			outC, fan, ns    int   // W is outC × fan, cols fan × ns, dY outC × ns
			liveFan, liveOut []int // rows of cols / rows of dY that hold data
		}{
			{64, 32, 32, []int{1, 5, 8, 13, 21, 30}, []int{2, 3, 5, 7, 11, 13}}, // part under gemmSmall, whole over
			{16, 72, 600, []int{9, 10, 11, 12, 13, 14, 15, 16, 17}, []int{1, 6, 15}},
			{8, 27, 2048, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 18, 19, 20, 21, 22, 23, 24, 25, 26}, []int{4}}, // one live dY row
			{8, 27, 2048, []int{9, 10, 11, 12, 13, 14, 15, 16, 17}, []int{0, 1, 2, 3, 4, 5, 6, 7}},        // eight: half width, unmasked
			{8, 6, 400, []int{0, 2, 5}, []int{3, 6}},
			{8, 8, 16, []int{1, 2}, []int{5}}, // whole under gemmSmall: direct loops on both
		} {
			for _, density := range []float64{1, 0.1} {
				for _, threads := range []int{1, 3} {
					pinKernelThreads(t, threads)
					name := fmt.Sprintf("outC%d fan%d ns%d rho=%v threads=%d", sh.outC, sh.fan, sh.ns, density, threads)
					w := make([]float32, sh.outC*sh.fan)
					cols := make([]float32, sh.fan*sh.ns)
					dy := make([]float32, sh.outC*sh.ns)
					rng.FillNorm(w, 1)
					rng.FillNorm(cols, 1)
					rng.FillNorm(dy, 1)
					for i := range w {
						if rng.Float64() >= density {
							w[i] = 0
						}
					}
					zeroRowsExcept(cols, sh.ns, sh.liveFan)
					zeroRowsExcept(dy, sh.ns, sh.liveOut)
					vol := sh.outC * sh.fan * sh.ns
					lf, lo := len(sh.liveFan), len(sh.liveOut)
					colsL, dyL := gather(cols, sh.ns, sh.liveFan), gather(dy, sh.ns, sh.liveOut)

					// Forward: Y = W × cols, k terms of dead rows of cols dropped.
					wCols := make([]float32, 0, sh.outC*lf)
					for oc := 0; oc < sh.outC; oc++ {
						for _, r := range sh.liveFan {
							wCols = append(wCols, w[oc*sh.fan+r])
						}
					}
					whole, part := make([]float32, sh.outC*sh.ns), make([]float32, sh.outC*sh.ns)
					Gemm(whole, w, cols, sh.outC, sh.fan, sh.ns, false, false)
					GemmPart(part, wCols, colsL, sh.outC, lf, sh.ns, false, vol, false)
					same(t, name+" forward", part, whole)

					// Input gradient: dcols = Wᵀ × dY, k terms of dead rows of dY dropped.
					whole, part = make([]float32, sh.fan*sh.ns), make([]float32, sh.fan*sh.ns)
					Gemm(whole, w, dy, sh.fan, sh.outC, sh.ns, true, false)
					GemmPart(part, gather(w, sh.fan, sh.liveOut), dyL, sh.fan, lo, sh.ns, true, vol, false)
					same(t, name+" input gradient", part, whole)

					// Weight gradient: dWᵀ = cols × dYᵀ with dY pixel-major, dead rows
					// and columns of C dropped.
					dyT, dyTL := transpose(dy, sh.outC, sh.ns), transpose(dyL, lo, sh.ns)
					whole = make([]float32, sh.fan*sh.outC)
					Gemm(whole, cols, dyT, sh.fan, sh.ns, sh.outC, false, false)
					wholeL := make([]float32, 0, lf*lo)
					for _, r := range sh.liveFan {
						for _, oc := range sh.liveOut {
							wholeL = append(wholeL, whole[r*sh.outC+oc])
						}
					}
					part = make([]float32, lf*lo)
					GemmPart(part, colsL, dyTL, lf, sh.ns, lo, false, vol, false)
					same(t, name+" weight gradient", part, wholeL)
					part = make([]float32, lf*lo)
					GemmPartDense(part, colsL, dyTL, lf, sh.ns, lo, vol, false)
					same(t, name+" weight gradient", part, wholeL)
				}
			}
		}
	})
}

// TestGemmWriteMatchesClearedAccumulate holds the write form (C = op(A)×B)
// to clearing C and accumulating, bit for bit, with C pre-filled with NaN so
// that a slot the write form loaded, or left unwritten, shows. The shapes
// reach the 4×16 tile and each of its tails (9–15 columns masked, exactly 8,
// under 8 masked), the eight-row half tile (whole and masked), a product of
// more than one k block (n = 4096 caps a block at 64 rows of B), an empty k,
// and the direct loops; each runs with A dense and
// with A 90 % zeros, which GemmPart sends down the sparse route, both
// transpositions, at one and four threads, AVX2 on and off.
func TestGemmWriteMatchesClearedAccumulate(t *testing.T) {
	nan := float32(math.NaN())
	shapes := [][3]int{
		{4, 600, 16}, {6, 500, 29}, {5, 500, 24}, {7, 600, 53}, {16, 300, 8}, {16, 300, 5}, {8, 400, 3},
		{3, 150, 4096}, {5, 200, 4100}, {4, 0, 40},
		{5, 8, 23}, {2, 40, 9}, // at or under gemmSmall: the direct loops
	}
	forEachKernelGate(t, func(t *testing.T) {
		rng := NewRNG(53)
		for _, threads := range []int{1, 4} {
			pinKernelThreads(t, threads)
			for _, sh := range shapes {
				m, k, n := sh[0], sh[1], sh[2]
				for _, sparse := range []bool{false, true} {
					a, b := make([]float32, m*k), make([]float32, k*n)
					rng.FillNorm(a, 1)
					rng.FillNorm(b, 1)
					for i := range a {
						if sparse && rng.Float64() < 0.9 {
							a[i] = 0
						}
					}
					for _, transA := range []bool{false, true} {
						name := fmt.Sprintf("m%d k%d n%d sparse %v tA %v at %d threads", m, k, n, sparse, transA, threads)
						want, got := make([]float32, m*n), make([]float32, m*n)
						GemmPart(want, a, b, m, k, n, transA, m*k*n, false)
						for i := range got {
							got[i] = nan
						}
						GemmPart(got, a, b, m, k, n, transA, m*k*n, true)
						sameFloats(t, name, got, want)
						if transA {
							continue
						}
						for i := range got {
							got[i] = nan
						}
						GemmPartDense(got, a, b, m, k, n, m*k*n, true)
						sameFloats(t, name+" dense", got, want)
					}
				}
			}
		}
	})
}

// TestGemmTiersMatchBitwise holds the AVX-512 tiles to the AVX2 ones bit for
// bit: rows 1–9 (the 4-row tiles' aliased rows and the eight-row tile with a
// row left over), every width up to 64 (every last-tile width of the 4×32
// tile, after a whole tile and alone, and the eight-row tile's 9–16
// columns), a short k and, past 8 columns, one that crosses the gemmL2Floats
// k-block split, both transpositions, accumulating and writing. C sits in a
// longer buffer whose tail, and with write set C itself, starts as junk, so a
// store past the block, a chain dropped or a write form that reads C shows as
// a bit that differs.
func TestGemmTiersMatchBitwise(t *testing.T) {
	setAVX512Gate(t, true)
	const maxM, maxN, pad = 9, 64, 32
	rng := NewRNG(71)
	pool := make([]float32, gemmL2Floats+4*maxN)
	rng.FillNorm(pool, 1)
	acc := make([]float32, maxM*maxN)
	rng.FillNorm(acc, 1)
	junk := math.Float32frombits(0x7fc0beef)
	run := func(buf, a, b []float32, m, k, n int, transA, write, avx512 bool) {
		hasAVX512 = avx512
		for i := range buf {
			buf[i] = junk
		}
		if !write {
			copy(buf, acc[:m*n])
		}
		GemmPart(buf[:m*n], a, b, m, k, n, transA, max(m*k*n, gemmSmall+1), write)
	}
	want := make([]float32, maxM*maxN+pad)
	got := make([]float32, maxM*maxN+pad)
	for n := 1; n <= maxN; n++ {
		ks := []int{7}
		if n > 8 { // narrower blocks run the AVX2 8×8 tile on both tiers
			ks = append(ks, gemmL2Floats/n+3)
		}
		for _, k := range ks {
			b := pool[len(pool)-k*n:]
			for m := 1; m <= maxM; m++ {
				a := pool[:m*k]
				for _, transA := range []bool{false, true} {
					for _, write := range []bool{false, true} {
						run(want, a, b, m, k, n, transA, write, false)
						run(got, a, b, m, k, n, transA, write, true)
						sameFloats(t, fmt.Sprintf("m%d k%d n%d tA %v write %v", m, k, n, transA, write),
							got[:m*n+pad], want[:m*n+pad])
					}
				}
			}
		}
	}
}

// sameFloats fails unless got and want hold the same bits.
func sameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestGemmDeterministicAcrossThreads requires bitwise-identical output for
// every kernel-thread setting: the acceptance bar for running the numeric
// substrate under fleet-level parallelism. Width 3 makes a split land in the
// middle of a tile row and of a tile column count that 4 and 16 divide.
func TestGemmDeterministicAcrossThreads(t *testing.T) {
	pinKernelThreads(t, 1)
	rng := NewRNG(44)
	shapes := append([][3]int{{32, 144, 256}, {64, 576, 1024}, {8, 1024, 100}, {33, 65, 67}}, convShapes...)
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillNorm(a, 1)
		rng.FillNorm(b, 1)
		for _, v := range gemmVariants {
			transA, transB := v[0], v[1]
			var ref []float32
			for _, threads := range []int{1, 3, 4, 16} {
				SetKernelThreads(threads)
				c := make([]float32, m*n)
				Gemm(c, a, b, m, k, n, transA, transB)
				if ref == nil {
					ref = c
					continue
				}
				for i := range c {
					if c[i] != ref[i] {
						t.Fatalf("m%d k%d n%d tA%v tB%v: threads=%d diverges at %d: %v vs %v",
							m, k, n, transA, transB, threads, i, c[i], ref[i])
					}
				}
			}
		}
	}
}

// TestGemmAllocFree pins the single-threaded path at zero heap allocations
// for all four transpose variants, the sparse route included: scratch tiles
// live in registers and nothing is packed.
func TestGemmAllocFree(t *testing.T) {
	pinKernelThreads(t, 1)
	rng := NewRNG(47)
	m, k, n := 40, 72, 600
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	rng.FillNorm(a, 1)
	rng.FillNorm(b, 1)
	sparse := append([]float32(nil), a...)
	for i := range sparse {
		if i%10 != 0 {
			sparse[i] = 0
		}
	}
	for _, v := range gemmVariants {
		transA, transB := v[0], v[1]
		if got := testing.AllocsPerRun(10, func() { Gemm(c, a, b, m, k, n, transA, transB) }); got != 0 {
			t.Errorf("tA%v tB%v: %v allocs/op, want 0", transA, transB, got)
		}
		if got := testing.AllocsPerRun(10, func() { Gemm(c, sparse, b, m, k, n, transA, false) }); got != 0 {
			t.Errorf("sparse tA%v: %v allocs/op, want 0", transA, got)
		}
	}
}

// TestAddTransposedMatchesScalar holds AddTransposed to the one float32 add
// per element of its definition, bit for bit, over whole 8×8 blocks, edges in
// either direction, and a destination wider than the transpose.
func TestAddTransposedMatchesScalar(t *testing.T) {
	forEachKernelGate(t, func(t *testing.T) {
		rng := NewRNG(53)
		for _, sh := range [][3]int{{1, 1, 1}, {8, 8, 8}, {576, 64, 64}, {72, 8, 8}, {27, 8, 8}, {13, 21, 30}, {9, 1, 9}, {16, 40, 45}} {
			m, n, ld := sh[0], sh[1], max(sh[0], sh[2])
			src, got := make([]float32, m*n), make([]float32, n*ld)
			rng.FillNorm(src, 1)
			rng.FillNorm(got, 1)
			want := append([]float32(nil), got...)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want[j*ld+i] += src[i*n+j]
				}
			}
			AddTransposed(got, ld, src, m, n)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("m%d n%d ld%d: element %d = %v, want %v", m, n, ld, i, got[i], want[i])
				}
			}
		}
	})
}

// transposeRowsRef is TransposeRows by its definition, one element at a time.
func transposeRowsRef(dst []float32, ld int, src []float32, rows []int, ns, lo, hi int) {
	for j, r := range rows {
		for p := lo; p < hi; p++ {
			dst[(p-lo)*ld+j] = src[r*ns+p]
		}
	}
}

// TestTransposeRowsMatchesGoForm holds TransposeRows to its Go form, and both
// to the definition, bit for bit (NaNs, infinities and −0 among the values):
// every count of rows from 1 to 20 and of pixels from 1 to 19 (each tail of
// the 8×8 blocks, alone and after whole ones), from pixel 0 and from an odd
// one, over row lists in no order, and into a destination wider than the
// rows, whose other columns must come back as they were.
func TestTransposeRowsMatchesGoForm(t *testing.T) {
	const c, ns = 24, 29
	rng := NewRNG(67)
	src := make([]float32, c*ns)
	rng.FillNorm(src, 1)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	for i := 0; i < len(src); i += 7 {
		src[i] = specials[i%len(specials)]
	}
	lists := make([][]int, 21)
	for nr := 1; nr < len(lists); nr++ {
		rows := make([]int, c)
		for i := range rows {
			rows[i] = i
		}
		for i := range rows { // a shuffle: any list of rows, not only ascending ones
			j := i + int(rng.Float64()*float64(len(rows)-i))
			rows[i], rows[j] = rows[j], rows[i]
		}
		lists[nr] = rows[:nr]
	}
	forEachKernelGate(t, func(t *testing.T) {
		for _, rows := range lists[1:] {
			for _, lo := range []int{0, 5} {
				for np := 1; np <= 19; np++ {
					ld := len(rows) + 3
					want, got := make([]float32, np*ld), make([]float32, np*ld)
					for i := range want {
						want[i], got[i] = 42, 42
					}
					transposeRowsRef(want, ld, src, rows, ns, lo, lo+np)
					TransposeRows(got, ld, src, rows, ns, lo, lo+np)
					sameFloats(t, fmt.Sprintf("rows %v pixels [%d, %d)", rows, lo, lo+np), got, want)
				}
			}
		}
	})
}

// TestAxpySliceIsUnfused pins AxpySlice to the scalar multiply-then-add loop
// bit for bit. It is the aggregation fold's arithmetic (shard.Reducer,
// fed.WeightedFedAvg, qp.Integrate), and the five FNV digests of
// fed.TestSparseFedAvgBitwise were captured from it: vectorising it with
// fused multiply-adds — as the GEMM's own row primitive, axpyRow, is — would
// move every one of them.
func TestAxpySliceIsUnfused(t *testing.T) {
	rng := NewRNG(48)
	for _, n := range []int{0, 1, 3, 4, 7, 8, 33, 1000} {
		x := make([]float32, n)
		got := make([]float32, n)
		rng.FillNorm(x, 1)
		rng.FillNorm(got, 1)
		want := append([]float32(nil), got...)
		const w = float32(0.3137)
		for i, v := range x {
			p := w * v // rounded before the add: no fusion
			want[i] += p
		}
		AxpySlice(got, w, x)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: element %d is %v, the unfused loop gives %v", n, i, got[i], want[i])
			}
		}
	}
}

// TestParallelCoversRange checks that Parallel partitions [0, n) exactly once
// for a spread of range sizes and thread settings.
func TestParallelCoversRange(t *testing.T) {
	defer SetKernelThreads(0)
	for _, threads := range []int{1, 2, 3, 8, 64} {
		SetKernelThreads(threads)
		for _, n := range []int{0, 1, 2, 5, 7, 64, 1000} {
			hits := make([]int32, n)
			var mu chanMutex = make(chan struct{}, 1)
			Parallel(n, func(lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				mu.Unlock()
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d visited %d times", threads, n, i, h)
				}
			}
		}
	}
}

type chanMutex chan struct{}

func (m chanMutex) Lock()   { m <- struct{}{} }
func (m chanMutex) Unlock() { <-m }

// TestEnsureReuses checks the scratch-buffer primitive.
func TestEnsureReuses(t *testing.T) {
	a := New(4, 8)
	base := &a.Data[0]
	b := Ensure(a, 2, 16)
	if b != a || &b.Data[0] != base {
		t.Fatal("Ensure must reuse storage when capacity suffices")
	}
	if b.Shape[0] != 2 || b.Shape[1] != 16 {
		t.Fatalf("shape %v", b.Shape)
	}
	c := Ensure(a, 10, 10)
	if len(c.Data) != 100 {
		t.Fatalf("grown len %d", len(c.Data))
	}
	if d := Ensure(nil, 3, 3); d == nil || len(d.Data) != 9 {
		t.Fatal("Ensure(nil) must allocate")
	}
}
