package tensor

// gramMaxRows bounds the rows Gram's AVX2 pass takes: its lanes live on the
// stack, four float64 a product. Beyond it, and without AVX2, every product
// is one DotSlice call, which the pass equals bit for bit.
const gramMaxRows = 16

// gramBlock is the AVX2 pass's coordinate block, in floats: every register
// tile runs over one block before the next block starts, so a row is read
// from memory once and re-read by the other tiles from L1 (gramMaxRows rows
// of a block are 32 KiB).
const gramBlock = 512

// Gram fills prod with every inner product of the equal-length rows, packed
// as a lower triangle: prod[i*(i+1)/2+j] = DotSlice(rows[i], rows[j]) for
// j <= i, bit for bit, so len(prod) must be m(m+1)/2 for m rows.
//
// The AVX2 pass reads each row once. It walks the coordinates in fixed
// blocks and, in each block, register tiles over the products: a triangle of
// up to four rows, or four rows against one or two later ones. Every product
// keeps DotSlice's four float64 lanes (lane l sums the coordinates
// p ≡ l mod 4 in ascending order) across blocks, and at the end its lanes
// are reduced ((l₀ + l₁) + l₂) + l₃ and the n mod 4 tail is added, as
// DotSlice does. A float32 × float32 product is exact in float64, so the
// kernels' fused multiply-add rounds as DotSlice's multiply and add do. The
// result does not depend on KernelThreads: nothing is split over threads.
func Gram(prod []float64, rows [][]float32) {
	m := len(rows)
	if len(prod) != m*(m+1)/2 {
		panic("tensor: Gram product count mismatch")
	}
	if m == 0 {
		return
	}
	n := len(rows[0])
	for _, r := range rows {
		if len(r) != n {
			panic("tensor: Gram size mismatch")
		}
	}
	n4 := n &^ 3
	if !hasDot4 || m > gramMaxRows || n4 == 0 {
		for i, ri := range rows {
			for j := 0; j <= i; j++ {
				prod[i*(i+1)/2+j] = DotSlice(ri, rows[j])
			}
		}
		return
	}
	var lanes [4 * gramMaxRows * (gramMaxRows + 1) / 2]float64
	for lo := 0; lo < n4; lo += gramBlock {
		w := min(gramBlock, n4-lo)
		acc := lanes[:]
		for q := 0; q < m; q += 4 {
			mq := min(4, m-q)
			for r := 0; r < q; r += 4 {
				a := [4]*float32{&rows[r][lo], &rows[r+1][lo], &rows[r+2][lo], &rows[r+3][lo]}
				for i := q; i < q+mq; i += 2 {
					nb := min(2, q+mq-i)
					b := [2]*float32{&rows[i][lo], &rows[i+nb-1][lo]}
					gramRect(&acc[0], &a, &b, nb, w)
					acc = acc[16*nb:]
				}
			}
			var t [4]*float32
			for i := range mq {
				t[i] = &rows[q+i][lo]
			}
			gramTri(&acc[0], &t, mq, w)
			acc = acc[2*mq*(mq+1):]
		}
	}
	// The same walk over the tiles, product by product in kernel order.
	acc := lanes[:]
	for q := 0; q < m; q += 4 {
		mq := min(4, m-q)
		for r := 0; r < q; r += 4 {
			for i := q; i < q+mq; i++ {
				for j := r; j < r+4; j++ {
					prod[i*(i+1)/2+j] = gramReduce(acc, rows[i], rows[j], n4)
					acc = acc[4:]
				}
			}
		}
		for i := q; i < q+mq; i++ {
			for j := q; j <= i; j++ {
				prod[i*(i+1)/2+j] = gramReduce(acc, rows[i], rows[j], n4)
				acc = acc[4:]
			}
		}
	}
}

// gramReduce finishes one product as DotSlice does: the four lanes summed
// in order, then the coordinates from n4 on added one at a time.
func gramReduce(lanes []float64, a, b []float32, n4 int) float64 {
	s := lanes[0] + lanes[1] + lanes[2] + lanes[3]
	for p := n4; p < len(a); p++ {
		s += float64(a[p]) * float64(b[p])
	}
	return s
}
