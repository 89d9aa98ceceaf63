package tensor

// GEMM kernel layer.
//
// Two micro-kernel forms, and the layout of B picks the form; neither packs
// an operand.
//
//   - !transB: the rows of B are n-contiguous, so a row of B is sixteen
//     adjacent columns' worth of one k step. The outer-product form holds a
//     4×16 tile of C in registers while p walks k — one 4×8 tile when n ≤ 8 —
//     and each step loads one row of B and broadcasts four values of op(A),
//     which is read through a (row stride, p stride) pair and is therefore
//     indifferent to transA (gemmOuter). Every product a convolution issues
//     runs here: forward Y = W × cols, input gradient dcols = Wᵀ × dY (W read
//     transposed in place), weight gradient dWᵀ = cols × dYᵀ (cols read in
//     place, dY pixel-major) — and both Linear backward products.
//   - transB: the rows of B are k-contiguous, and so are the rows of A, so
//     C[i][j] is a dot product of two sequential reads. The dot form runs one
//     A row against four B rows with eight independent accumulators and one
//     store per k multiply-adds (gemmDotRows). Its one caller is Linear
//     forward, always a whole product.
//
// Tiers. The outer-product form has three: pure Go (gemmDirect) everywhere,
// the AVX2 tiles above where hasDot4, and where hasAVX512 as well (AVX512F
// with the OS saving opmask and ZMM state, detected once, no flag) 512-bit
// tiles: 4×32, two ZMM a row, for a block wider than 16 columns, and 8 rows of
// one ZMM for 9 to 16 columns. A block of at most 8 columns keeps the AVX2 8×8
// tile, and rows an eight-row tile leaves over the AVX2 4×16 one, so the AVX2
// tiles stay in use and are the only kernels on CPUs without AVX-512F. The
// two vector tiers give every element the same bits: a lane's fused
// multiply-add rounds once whatever the register width, and p walks k in the
// same order.
//
// When op(A) is mostly zeros (FedKNOW's ρ = 10 % knowledge models) the
// outer-product form runs one row at a time and skips the zero multipliers
// (gemmSparseARows). A sample of op(A) decides, except where the caller knows
// op(A) to be dense (GemmPartDense).
//
// Determinism. On the outer-product form every element of C is one fused
// multiply-add chain over p = 0..k-1, in order, onto the incoming C value —
// interior tiles, edge tiles (rows past m alias the last row, columns past n
// are masked or, at n ≤ 8, never loaded) and the sparse rows alike — so the
// value is independent of the tile it falls in and any split over row strips
// or column tiles is invisible; for finite operands a skipped zero multiplier
// is fma(0, b, c) = c, so the sparse route equals the dense one bit for bit
// (the sign of a zero aside: a skipped step leaves a C of −0 alone, the chain
// may make it +0). The dot form's accumulation order is fixed by k alone and
// it is split over rows of C. Results are therefore bitwise identical for
// every KernelThreads setting. Machines without AVX2+FMA run the plain loops
// of gemmDirect, split over rows the same way.
//
// Parts of a product. GemmPart multiplies operands gathered out of a larger
// product — some of its rows, some of its columns, some of its k terms, each
// set in ascending order — and every element comes out with the bits the
// larger product gives it when all it dropped were terms with an exactly-zero
// factor (Conv2D drops its dead channels this way). On the outer-product form
// and the sparse route a dropped row or column of C is a chain nobody runs and
// a dropped k term is a skipped fma(a, 0, c) = c, the surviving terms keeping
// their order: the sparse route's own argument one level up. What a part's
// own shape would otherwise decide is the route: gemmDirect below gemmSmall
// rounds c += a*b twice, the kernels above it once, so a part smaller than
// gemmSmall of a whole that is not must still run the kernels (and the
// reverse). The kernel form is picked by the whole product's volume; the
// part's own volume only decides whether splitting it over the pool pays.
//
// Writing instead of accumulating. A part can also be asked to overwrite C
// (BLAS's β = 0) rather than add into it. The outer-product kernels then start
// the first k block's chains from +0 in registers instead of loading C, the
// sparse route clears a row of C just before its first step, and the direct
// loops clear their rows first: each element is the chain it would be on a C
// cleared to +0 beforehand, bit for bit, without the pass that clears it.
const (
	// gemmSmall is the m*k*n volume below which a direct loop is used.
	gemmSmall = 16 * 1024

	// gemmParallelCutoff is the m*k*n volume below which the kernel stays
	// single-threaded: spawning workers costs more than the multiply.
	gemmParallelCutoff = 96 * 1024

	// gemmL1Floats bounds the block of B the micro-kernels keep hot while
	// the rows of A stream past: 24 KiB, half of a 48 KiB L1d, leaving room
	// for the A rows and the C tile.
	gemmL1Floats = 6 * 1024

	// gemmL2Floats bounds the address range a block of B may span: 1 MiB,
	// half of a 2 MiB L2.
	gemmL2Floats = 256 * 1024
)

// Gemm computes C += op(A)×op(B) into c (m×n), where op transposes when the
// corresponding flag is set. A is m×k (or k×m when transposed), B is k×n (or
// n×k when transposed); transposing both is not supported. c must be
// pre-sized m*n; it is accumulated into, so callers wanting plain assignment
// must zero it first.
func Gemm(c, a, b []float32, m, k, n int, transA, transB bool) {
	if !transB {
		GemmPart(c, a, b, m, k, n, transA, m*k*n, false)
		return
	}
	if transA {
		panic("tensor: Gemm with both operands transposed")
	}
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	switch {
	case m*k*n <= gemmSmall:
		gemmDirect(c, a, b, m, k, n, false, true, false, 0, m)
	case m*k*n >= gemmParallelCutoff && KernelThreads() > 1:
		Parallel(m, func(lo, hi int) { gemmDotRows(c, a, b, k, n, lo, hi) })
	default:
		gemmDotRows(c, a, b, k, n, 0, m)
	}
}

// GemmPart is Gemm without transB over operands gathered out of a larger
// product of volume vol (its m·k·n), rounding every element as that product
// does: vol picks between the direct loops and the kernels, as the file
// comment explains. A product that is its own whole is Gemm: vol = m·k·n.
// With write set it computes C = op(A)×B instead, every element of C written
// and none read, with the bits of clearing C and accumulating. An empty part
// reaches no kernel: it adds nothing, and writes zeros where only k is 0.
func GemmPart(c, a, b []float32, m, k, n int, transA bool, vol int, write bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if write {
			clear(c[:m*n])
		}
		return
	}
	if vol > gemmSmall && sparseEnough(a[:m*k]) {
		// FedKNOW's knowledge models are ~90 % zeros (§III-B retains the
		// top-ρ weights over a zero base): skipping zero multipliers beats
		// the dense tile by the sparsity factor.
		if m*k*n >= gemmParallelCutoff && KernelThreads() > 1 {
			Parallel(m, func(lo, hi int) { gemmSparseARows(c, a, b, m, k, n, transA, write, lo, hi) })
		} else {
			gemmSparseARows(c, a, b, m, k, n, transA, write, 0, m)
		}
		return
	}
	gemmDense(c, a, b, m, k, n, transA, vol, write)
}

// GemmPartDense is GemmPart for a row-major A (m×k) that the caller knows to
// be dense — an activation such as a convolution's column matrix — and so
// never samples it for the zero-skipping route. That route steps one row of C
// at a time; at a narrow n it loses to the tile however many zeros A has, and
// post-ReLU, padded column matrices sample as sparse. The bits are
// GemmPart's, since both routes run the same chains.
func GemmPartDense(c, a, b []float32, m, k, n, vol int, write bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		if write {
			clear(c[:m*n])
		}
		return
	}
	gemmDense(c, a, b, m, k, n, false, vol, write)
}

// gemmDense runs GemmPart's dense routes: the outer-product kernels above
// gemmSmall where the machine has them, the direct loops otherwise. Closure
// construction is skipped entirely on the single-threaded path so
// steady-state training allocates nothing.
func gemmDense(c, a, b []float32, m, k, n int, transA bool, vol int, write bool) {
	wide := m*k*n >= gemmParallelCutoff && KernelThreads() > 1
	switch {
	case vol > gemmSmall && hasDot4:
		gemmOuter(c, a, b, m, k, n, transA, write, wide)
	case wide:
		Parallel(m, func(lo, hi int) { gemmDirect(c, a, b, m, k, n, transA, false, write, lo, hi) })
	default:
		gemmDirect(c, a, b, m, k, n, transA, false, write, 0, m)
	}
}

// gemmDotRows accumulates rows [lo, hi) of C += A × Bᵀ for row-major A (m×k)
// and B (n×k). Four rows of B are processed per pass so every a-load feeds
// four multiply-add chains; eight independent accumulators keep the FP pipes
// busy. The last n % 4 columns go through dot32.
//
// The rows of B are walked in blocks of gemmL1Floats/k: a block then stays
// in L1 while every row of A passes over it. Blocks are whole multiples of
// four rows, so which rows share a pass — and with it every element's
// summation order — is the same as without blocking.
func gemmDotRows(c, a, b []float32, k, n, lo, hi int) {
	useFMA := hasDot4 && k >= 8
	kBlk := k &^ 7
	nb := max(4, (gemmL1Floats/k)&^3)
	grouped := n &^ 3
	for j0 := 0; j0 < n; j0 += nb {
		j1 := min(j0+nb, n)
		g1 := min(j1, grouped)
		for i := lo; i < hi; i++ {
			ai := a[i*k : i*k+k : i*k+k]
			ci := c[i*n : i*n+n]
			j := j0
			for ; j < g1; j += 4 {
				b0 := b[j*k : (j+1)*k : (j+1)*k]
				b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
				b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
				b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
				var s0, s1, s2, s3 float32
				p := 0
				if useFMA {
					var acc [4]float32
					dot4fma(&ai[0], &b0[0], &b1[0], &b2[0], &b3[0], kBlk, &acc)
					s0, s1, s2, s3 = acc[0], acc[1], acc[2], acc[3]
					p = kBlk
				}
				for ; p < len(ai); p++ {
					av := ai[p]
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				ci[j] += s0
				ci[j+1] += s1
				ci[j+2] += s2
				ci[j+3] += s3
			}
			for ; j < j1; j++ {
				ci[j] += dot32(ai, b[j*k:(j+1)*k])
			}
		}
	}
}

// gemmOuter runs the outer-product form over C += op(A) × B. The work is
// split over whichever of the tile columns (16 wide, 32 on the AVX-512 tier)
// and the 4-row strips there are more of — the conv products have
// n = N·spatial of 32…4096 against a forward m of 8…64 — and since an
// element's value does not depend on its tile, neither split shows in the
// result.
func gemmOuter(c, a, b []float32, m, k, n int, transA, write, wide bool) {
	ars, aps := opAStrides(m, k, transA)
	tw := tileWidth()
	strips, tiles := (m+3)/4, (n+tw-1)/tw
	switch {
	case !wide:
		gemmOuterBlock(c, a, b, k, n, ars, aps, write, 0, m, 0, n)
	case tiles >= strips:
		Parallel(tiles, func(lo, hi int) { gemmOuterBlock(c, a, b, k, n, ars, aps, write, 0, m, tw*lo, min(tw*hi, n)) })
	default:
		Parallel(strips, func(lo, hi int) { gemmOuterBlock(c, a, b, k, n, ars, aps, write, 4*lo, min(4*hi, m), 0, n) })
	}
}

// gemmOuterBlock accumulates rows [i0, i1) × columns [j0, j1) of C, one block
// of B at a time: kb rows of k by nb columns, over which every strip of op(A)
// passes before the next block is touched. kb keeps the rows a block spans
// (kb·n floats of address space) within gemmL2Floats, because rows of B a
// power-of-two stride apart share cache sets and a taller block would evict
// itself between two strips; nb then sizes the block for L1. A later k block
// continues each element's chain from the stored C value, so blocking moves
// no bit; with write set the first k block starts them from +0 instead of
// loading C. A block at most 8 columns wide (the weight gradient of a layer
// with 8 output channels, or fewer live ones) goes eight rows at a time, so
// that as many chains are in flight as in a full-width strip. On the AVX-512
// tier nb is a multiple of 32, a block of 9 to 16 columns also goes eight
// rows at a time (one ZMM a row), and a wider one runs the 4×32 tile; rows an
// eight-row tile leaves over take the AVX2 4×16 tile.
func gemmOuterBlock(c, a, b []float32, k, n, ars, aps int, write bool, i0, i1, j0, j1 int) {
	kMax := max(8, gemmL2Floats/n)
	kBlocks := (k + kMax - 1) / kMax
	kb := (k + kBlocks - 1) / kBlocks // even blocks, none taller than kMax
	tw := tileWidth()
	nb := max(tw, (gemmL1Floats/kb)&^(tw-1))
	for ; j0 < j1; j0 += nb {
		w := min(nb, j1-j0)
		wide512, rows8 := hasAVX512 && w > 16, w <= 8 || hasAVX512 && w <= 16
		for p := 0; p < k; p += kb {
			kp, i, wr := min(kb, k-p), i0, write && p == 0
			for ; rows8 && i+8 <= i1; i += 8 {
				if w <= 8 {
					gemmOuterHalfFMA(&c[i*n+j0], &a[i*ars+p*aps], &b[p*n+j0], n, ars, aps, kp, w, wr)
				} else {
					gemmOuter512H(&c[i*n+j0], &a[i*ars+p*aps], &b[p*n+j0], n, ars, aps, kp, w, wr)
				}
			}
			for ; i < i1; i += 4 {
				if wide512 {
					gemmOuter512(&c[i*n+j0], &a[i*ars+p*aps], &b[p*n+j0], n, ars, aps, kp, min(4, i1-i), w, wr)
				} else {
					gemmOuterFMA(&c[i*n+j0], &a[i*ars+p*aps], &b[p*n+j0], n, ars, aps, kp, min(4, i1-i), w, wr)
				}
			}
		}
	}
}

// tileWidth is the column width of the outer-product form's widest tile: 32
// on the AVX-512 tier, 16 otherwise.
func tileWidth() int {
	if hasAVX512 {
		return 32
	}
	return 16
}

// opAStrides returns the strides op(A) is read through without transposing
// it: op(A)[i][p] = a[i*ars+p*aps].
func opAStrides(m, k int, transA bool) (ars, aps int) {
	if transA {
		return 1, m // A is k×m
	}
	return k, 1
}

// sparseEnough reports whether the op(A) operand looks ≥60 % zero. Large
// operands are judged from a 128-point stride sample. The choice is about
// speed only: the sparse and the dense route run the same multiply-add chain
// per element, so for finite operands a borderline sample that falls either
// way yields the same bits (TestGemmSparseRouteMatchesDenseBitwise).
// Knowledge models (ρ=10 % retained) and masked logit gradients sit far from
// the boundary. The sample stops as soon as its remaining probes cannot
// change the verdict — a dense operand after 52 of 128 — and the verdict is
// the whole sample's.
func sparseEnough(a []float32) bool {
	step := 1
	if len(a) > 512 {
		step = len(a) / 128
	}
	probes := (len(a) + step - 1) / step
	need := (probes*6 + 9) / 10 // the fewest zeros with zeros*10 >= probes*6
	zeros, nonZeros := 0, 0
	for i := 0; i < len(a); i += step {
		if a[i] == 0 {
			if zeros++; zeros >= need {
				return true
			}
		} else if nonZeros++; nonZeros > probes-need {
			return false
		}
	}
	return zeros >= need
}

// gemmSparseARows computes rows [lo, hi) of C += op(A)×B (C = op(A)×B with
// write set) for a mostly-zero op(A): the outer-product chain one row at a
// time, with the zero multipliers skipped. A row to be written is cleared
// just before its first step, while it is the row in cache.
func gemmSparseARows(c, a, b []float32, m, k, n int, transA, write bool, lo, hi int) {
	ars, aps := opAStrides(m, k, transA)
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		if write {
			clear(ci)
		}
		for p := 0; p < k; p++ {
			if av := a[i*ars+p*aps]; av != 0 {
				axpyRow(ci, av, b[p*n:(p+1)*n])
			}
		}
	}
}

// axpyRow computes c += av*b, the outer-product form's step for one row. It
// is not AxpySlice: that one is the aggregation fold's arithmetic and stays
// unfused, whereas this one must round like the tile kernel does.
func axpyRow(c []float32, av float32, b []float32) {
	if hasDot4 {
		axpyFMA(&c[0], &b[0], av, len(c))
		return
	}
	for j, bv := range b {
		c[j] += av * bv
	}
}

// gemmDirect computes rows [lo, hi) of C with the classic loop nests: the
// whole of a problem too small for the kernels above to pay off, and the
// !transB form on machines without the AVX2 kernels. With write set it
// clears those rows first.
func gemmDirect(c, a, b []float32, m, k, n int, transA, transB, write bool, lo, hi int) {
	if write {
		clear(c[lo*n : hi*n])
	}
	switch {
	case !transA && !transB:
		for i := lo; i < hi; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*k : (i+1)*k]
			for p := 0; p < k; p++ {
				av := ai[p]
				bp := b[p*n : (p+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	case transA && !transB:
		// A is k×m, op(A) is m×k.
		for p := 0; p < k; p++ {
			ap := a[p*m : (p+1)*m]
			bp := b[p*n : (p+1)*n]
			for i := lo; i < hi; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				ci := c[i*n : (i+1)*n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	default:
		// transB (Gemm refuses it with transA): B is n×k, op(B) is k×n.
		for i := lo; i < hi; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*k : (j+1)*k]
				ci[j] += dot32(ai, bj)
			}
		}
	}
}

// dot32 is a 4-way unrolled float32 dot product.
func dot32(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a = a[4:]
		b = b[4:]
	}
	s := s0 + s1 + s2 + s3
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AddTransposed adds the transpose of src, an m×n row-major matrix, into dst,
// whose rows are ld floats apart: dst[j*ld+i] += src[i*n+j] for i < m, j < n.
// It is how a product computed as Cᵀ — a convolution's dWᵀ = cols × dYᵀ —
// reaches its destination. With the AVX2 kernels the 8×8 blocks are
// transposed in registers; the edges, and every element elsewhere, take the
// scalar loop. Each element is one float32 addition either way.
func AddTransposed(dst []float32, ld int, src []float32, m, n int) {
	if m <= 0 || n <= 0 {
		return
	}
	_, _ = dst[(n-1)*ld+m-1], src[m*n-1]
	m8, n8 := 0, 0
	if hasDot4 {
		m8, n8 = m&^7, n&^7
	}
	if n8 > 0 {
		for i := 0; i < m8; i += 8 {
			addT8(&dst[i], ld, &src[i*n], n, n8/8)
		}
	}
	for i := 0; i < m; i++ {
		j := 0
		if i < m8 {
			j = n8
		}
		for ; j < n; j++ {
			dst[j*ld+i] += src[i*n+j]
		}
	}
}

// TransposeRows writes pixels [lo, hi) of the rows rows[j] of src, runs of ns
// floats, pixel-major into dst, whose rows are ld floats apart:
// dst[(p−lo)·ld + j] = src[rows[j]·ns + p] for j < len(rows), lo <= p < hi.
// It is how a convolution's live rows of dY become the pixel-major operand of
// its weight gradient. With the AVX2 kernels eight rows by eight pixels are
// transposed in registers at a time; the rows and pixels left over take the
// scalar loop. Every element is copied either way, so no bit can differ.
func TransposeRows(dst []float32, ld int, src []float32, rows []int, ns, lo, hi int) {
	np := hi - lo
	if np <= 0 || len(rows) == 0 {
		return
	}
	_ = dst[(np-1)*ld+len(rows)-1]
	r8, p8 := 0, 0
	if hasDot4 {
		r8, p8 = len(rows)&^7, np&^7
	}
	if p8 > 0 {
		var ptrs [8]*float32
		for j := 0; j < r8; j += 8 {
			for k, r := range rows[j : j+8] {
				ptrs[k] = &src[r*ns+lo : r*ns+lo+p8][0]
			}
			copyT8(&dst[j], ld, &ptrs, p8/8)
		}
	}
	for j, r := range rows {
		p := lo
		if j < r8 {
			p = lo + p8
		}
		for ; p < hi; p++ {
			dst[(p-lo)*ld+j] = src[r*ns+p]
		}
	}
}
