package tensor

// outRange returns the [lo, hi) range of output coordinates whose input tap
// o*stride + k - pad lands inside [0, extent). Hoisting the bounds out of
// the per-pixel loops removes all branches from the copy kernels below.
func outRange(extent, k, stride, pad, out int) (lo, hi int) {
	// o*stride + k - pad >= 0  →  o >= ceil((pad-k)/stride)
	lo = 0
	if pad-k > 0 {
		lo = (pad - k + stride - 1) / stride
	}
	// o*stride + k - pad < extent  →  o < ceil((extent+pad-k)/stride).
	// A tap past the padded extent gives a non-positive numerator, where
	// truncating division is not ceiling — clamp to an empty range instead
	// (the whole row is padding then, e.g. a kernel larger than the input).
	hi = extent + pad - k
	if hi <= 0 {
		hi = 0
	} else {
		hi = (hi + stride - 1) / stride
	}
	if hi > out {
		hi = out
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Im2Col lowers a single image (C×H×W, given as a flat slice) into a column
// matrix suitable for expressing convolution as GEMM. The image's block has
// C*kh*kw rows and outH*outW columns and sits inside a wider row-major
// matrix: row r occupies dst[r*ld+off : r*ld+off+outH*outW], so a batch
// lowers into one matrix with ld = N*outH*outW and off = i*outH*outW for
// image i (a lone image uses ld = outH*outW, off = 0). Zero padding is
// applied implicitly: out-of-range taps contribute 0. The interior of every
// row is a branch-free copy (a single memmove when stride is 1); only the
// padded fringe is zero-filled.
func Im2Col(dst, img []float32, c, h, w, kh, kw, stride, pad, outH, outW, ld, off int) {
	cols := outH * outW
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := outRange(h, ky, stride, pad, outH)
			for kx := 0; kx < kw; kx++ {
				rowIdx := (ch*kh+ky)*kw + kx
				row := dst[rowIdx*ld+off : rowIdx*ld+off+cols]
				oxLo, oxHi := outRange(w, kx, stride, pad, outW)
				clear(row[:oyLo*outW])
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*stride + ky - pad
					src := img[base+iy*w : base+(iy+1)*w]
					out := row[oy*outW : (oy+1)*outW]
					clear(out[:oxLo])
					if oxHi <= oxLo {
						// Entire row is padding (tap outside the input).
					} else if stride == 1 {
						off := kx - pad
						copy(out[oxLo:oxHi], src[oxLo+off:])
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							out[ox] = src[ox*stride+kx-pad]
						}
					}
					clear(out[oxHi:])
				}
				clear(row[oyHi*outW:])
			}
		}
	}
}

// Col2Im accumulates one image's block of the column matrix (laid out as
// Im2Col writes it: leading dimension ld, column offset off) back into image
// gradient space — the adjoint of Im2Col. dst must be a c*h*w slice; values
// are added, so callers typically zero it first.
func Col2Im(dst, cols []float32, c, h, w, kh, kw, stride, pad, outH, outW, ld, off int) {
	nCols := outH * outW
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for ky := 0; ky < kh; ky++ {
			oyLo, oyHi := outRange(h, ky, stride, pad, outH)
			for kx := 0; kx < kw; kx++ {
				rowIdx := (ch*kh+ky)*kw + kx
				row := cols[rowIdx*ld+off : rowIdx*ld+off+nCols]
				oxLo, oxHi := outRange(w, kx, stride, pad, outW)
				if oxHi <= oxLo {
					continue
				}
				for oy := oyLo; oy < oyHi; oy++ {
					iy := oy*stride + ky - pad
					dstRow := dst[base+iy*w : base+(iy+1)*w]
					srcRow := row[oy*outW : (oy+1)*outW]
					if stride == 1 {
						off := kx - pad
						d := dstRow[oxLo+off : oxHi+off]
						s := srcRow[oxLo:oxHi]
						for i, v := range s {
							d[i] += v
						}
					} else {
						for ox := oxLo; ox < oxHi; ox++ {
							dstRow[ox*stride+kx-pad] += srcRow[ox]
						}
					}
				}
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding applied to extent in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
