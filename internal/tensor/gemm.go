package tensor

import "sync"

// GEMM kernel layer.
//
// The kernel normalises both operands to k-contiguous layouts — op(A) rows
// and op(B) columns — then runs a register-tiled dot-product micro-kernel
// (one A row against four B columns, eight independent accumulators) over
// column chunks sized to stay L2-resident, walked in L1-sized blocks. On this
// substrate's shapes the dot form beats axpy/outer-product tilings because
// it performs one store per k multiply-adds and every inner-loop read is
// sequential.
//
// Layout normalisation is what makes the four transpose variants uniform:
//   - op(B) columns are already contiguous when transB is set (row-major
//     B^T), so the common Linear-forward case x×W^T needs no packing at all;
//   - otherwise column chunks of B are transposed into a pooled buffer;
//   - op(A) rows are contiguous unless transA is set, in which case A^T is
//     packed once.
//
// Determinism: for a fixed problem shape the blocking, chunking, and
// per-element accumulation order are fixed by the shape alone. Parallelism
// only distributes disjoint row ranges of C across workers, so results are
// bitwise identical for every KernelThreads setting.
const (
	// gemmSmall is the m*k*n volume below which normalise-and-tile overhead
	// outweighs its wins and a direct loop is used instead.
	gemmSmall = 16 * 1024

	// gemmParallelCutoff is the m*k*n volume below which the kernel stays
	// single-threaded: spawning workers costs more than the multiply.
	gemmParallelCutoff = 96 * 1024

	// gemmChunkFloats bounds the packed B^T chunk (columns × k) so it stays
	// comfortably inside L2 while the kernel makes m passes over it.
	gemmChunkFloats = 64 * 1024

	// gemmL1Floats bounds the block of packed columns the micro-kernel keeps
	// hot while the rows of A stream past: 24 KiB, half of a 48 KiB L1d,
	// leaving room for the A row and the C row.
	gemmL1Floats = 6 * 1024
)

// packPool recycles packing buffers across Gemm calls (and across the
// per-client goroutines of the federated engine), keeping steady-state
// allocations at zero. Pointers are pooled to avoid boxing slice headers.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

func getPack(n int) *[]float32 {
	p := packPool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

func putPack(p *[]float32) { packPool.Put(p) }

// Gemm computes C += op(A)×op(B) into c (m×n), where op transposes when the
// corresponding flag is set. A is m×k (or k×m when transposed), B is k×n (or
// n×k when transposed). c must be pre-sized m*n; it is accumulated into, so
// callers wanting plain assignment must zero it first.
func Gemm(c, a, b []float32, m, k, n int, transA, transB bool) {
	if m <= 0 || n <= 0 || k <= 0 {
		return
	}
	if m*k*n <= gemmSmall {
		gemmDirect(c, a, b, m, k, n, transA, transB)
		return
	}
	// FedKNOW's knowledge models are ~90 % zeros (§III-B retains the top-ρ
	// weights over a zero base). When op(A) is that sparse, skipping zero
	// multipliers beats the dense kernel by the sparsity factor, so route
	// the two B-untransposed variants through an axpy loop with a zero skip.
	// The decision depends only on the operand values, never on the thread
	// count, so it cannot break determinism.
	if !transB && sparseEnough(a[:m*k]) {
		gemmSparseA(c, a, b, m, k, n, transA)
		return
	}

	// Normalise op(A) to row-major m×k.
	aRM := a
	var aPack *[]float32
	if transA {
		aPack = getPack(m * k)
		packBT(*aPack, a, k, m, 0, m) // a is k×m: its columns are op(A)'s rows
		aRM = *aPack
	}

	// Closure construction is skipped entirely on the single-threaded path so
	// steady-state training allocates nothing.
	runParallel := m*k*n >= gemmParallelCutoff && KernelThreads() > 1

	if transB {
		// op(B)^T is row-major B itself: columns already k-contiguous.
		if runParallel {
			Parallel(m, func(lo, hi int) { gemmDotRows(c, aRM, b, k, n, 0, n, lo, hi) })
		} else {
			gemmDotRows(c, aRM, b, k, n, 0, n, 0, m)
		}
	} else {
		nc := (gemmChunkFloats / k) &^ 3
		if nc < 4 {
			nc = 4
		}
		btPack := getPack(min(nc, n) * k)
		bt := *btPack
		for jc := 0; jc < n; jc += nc {
			w := min(nc, n-jc)
			packBT(bt, b, k, n, jc, w)
			if runParallel {
				Parallel(m, func(lo, hi int) { gemmDotRows(c, aRM, bt, k, n, jc, w, lo, hi) })
			} else {
				gemmDotRows(c, aRM, bt, k, n, jc, w, 0, m)
			}
		}
		putPack(btPack)
	}
	if aPack != nil {
		putPack(aPack)
	}
}

// gemmDotRows multiplies rows [lo, hi) of the row-major aRM against the w
// k-contiguous columns held in bt, accumulating into C columns [jc, jc+w).
// Four columns are processed per pass so every a-load feeds four multiply-add
// chains; eight independent accumulators keep the FP pipes busy.
//
// The columns are walked in blocks of gemmL1Floats/k: a block of bt then
// stays in L1 while every row of A passes over it, where one sweep over all
// w columns per row streamed bt from L2 once per row. Blocks are whole
// multiples of four columns, so which columns share a pass — and with it
// every element's summation order — is the same as without blocking.
func gemmDotRows(c, aRM, bt []float32, k, n, jc, w, lo, hi int) {
	useFMA := hasDot4 && k >= 8
	kBlk := k &^ 7
	nb := max(4, (gemmL1Floats/k)&^3)
	for j0 := 0; j0 < w; j0 += nb {
		j1 := min(j0+nb, w)
		for i := lo; i < hi; i++ {
			ai := aRM[i*k : i*k+k : i*k+k]
			ci := c[i*n+jc : i*n+jc+w]
			j := j0
			for ; j+4 <= j1; j += 4 {
				b0 := bt[j*k : (j+1)*k : (j+1)*k]
				b1 := bt[(j+1)*k : (j+2)*k : (j+2)*k]
				b2 := bt[(j+2)*k : (j+3)*k : (j+3)*k]
				b3 := bt[(j+3)*k : (j+4)*k : (j+4)*k]
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
				ci[j] += dot32(ai, bt[j*k:(j+1)*k])
			}
		}
	}
}

// packTile is the number of B columns packBT transposes at a time. Each
// column is its own destination cache line, so a tile touches packTile lines
// (16 KiB) over and over while it walks down k — small enough to stay in L1
// however many columns the chunk has. The batch-wide conv lowering hands
// Gemm chunks of several hundred columns; untiled, their lines were evicted
// between two visits.
const packTile = 256

// packBT transposes columns [jc, jc+w) of the row-major k×n matrix b into
// bt, so that bt[j*k:(j+1)*k] is column jc+j of b. It moves 4×4 blocks —
// four source rows in, four adjacent floats out per column — so the strided
// side of the transpose is written 16 bytes at a time.
func packBT(bt, b []float32, k, n, jc, w int) {
	for j0 := 0; j0 < w; j0 += packTile {
		tw := min(packTile, w-j0)
		p := 0
		for ; p+4 <= k; p += 4 {
			r0 := b[p*n+jc+j0:][:tw]
			r1 := b[(p+1)*n+jc+j0:][:tw]
			r2 := b[(p+2)*n+jc+j0:][:tw]
			r3 := b[(p+3)*n+jc+j0:][:tw]
			for j := range r0 {
				d := bt[(j0+j)*k+p:][:4]
				d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			}
		}
		for ; p < k; p++ {
			for j, v := range b[p*n+jc+j0:][:tw] {
				bt[(j0+j)*k+p] = v
			}
		}
	}
}

// sparseEnough reports whether the op(A) operand looks ≥60 % zero. Large
// operands are judged from a 128-point stride sample — the choice only
// selects between two correct kernels, so sampling error merely costs a few
// per cent of speed on borderline inputs. Knowledge models (ρ=10 % retained)
// and masked logit gradients sit far from the boundary. The decision is a
// pure function of the operand values, so it is identical for every thread
// setting.
func sparseEnough(a []float32) bool {
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

// gemmSparseA computes C += op(A)×B for a mostly-zero op(A): per output row,
// zero multipliers are skipped entirely. Rows are distributed across the
// kernel pool; every element keeps a fixed accumulation order regardless of
// the worker count.
func gemmSparseA(c, a, b []float32, m, k, n int, transA bool) {
	if KernelThreads() <= 1 {
		gemmSparseARows(c, a, b, m, k, n, transA, 0, m)
		return
	}
	Parallel(m, func(lo, hi int) {
		gemmSparseARows(c, a, b, m, k, n, transA, lo, hi)
	})
}

func gemmSparseARows(c, a, b []float32, m, k, n int, transA bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		if transA {
			// op(A)[i][p] = a[p*m+i]
			for p := 0; p < k; p++ {
				if av := a[p*m+i]; av != 0 {
					AxpySlice(ci, av, b[p*n:(p+1)*n])
				}
			}
		} else {
			ai := a[i*k : (i+1)*k]
			for p, av := range ai {
				if av != 0 {
					AxpySlice(ci, av, b[p*n:(p+1)*n])
				}
			}
		}
	}
}

// gemmDirect handles problems too small to amortise layout normalisation:
// the classic loop nests with branch-free inner loops.
func gemmDirect(c, a, b []float32, m, k, n int, transA, transB bool) {
	switch {
	case !transA && !transB:
		for i := 0; i < m; i++ {
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
			for i := 0; i < m; i++ {
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
	case !transA && transB:
		// B is n×k, op(B) is k×n.
		for i := 0; i < m; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*k : (j+1)*k]
				ci[j] += dot32(ai, bj)
			}
		}
	default: // transA && transB
		for i := 0; i < m; i++ {
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*k : (j+1)*k]
				var s float32
				for p := 0; p < k; p++ {
					s += a[p*m+i] * bj[p]
				}
				ci[j] += s
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
