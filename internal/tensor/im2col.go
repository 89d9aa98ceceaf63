package tensor

// Lowering and raising: convolution as GEMM.
//
// Im2Col lowers an NCHW batch into one column matrix of c·kh·kw rows and
// n·outH·outW columns: row (ch, ky, kx) holds, for image i at columns
// [i·spatial, (i+1)·spatial), the input pixel tap (ky, kx) reads for every
// output position, and 0 where that tap lands in the padding. Col2Im is its
// adjoint: it sums a column gradient back onto the input planes.
//
// Both walk the matrix row by row. A row's tap geometry — the output rows
// [oy.lo, oy.hi) and columns [ox.lo, ox.hi) whose tap lands inside the input —
// depends on (ky, kx) alone, so outRange runs kh + kw times a call and the n
// image segments of a row are then written (or read) one after another:
// sequential stores down the matrix, with the n source planes of one channel
// staying in L1 across its kh·kw taps.
//
// Inside a segment there are two inner loops, and the geometry picks:
//
//   - stride == 1 && outW == w ('same' 3×3, 1×1 — the map keeps its row
//     pitch): output position j reads input position j + shift, with
//     shift = (ky−pad)·w + (kx−pad), so the valid part of the segment is the
//     channel plane shifted — one run from (oy.lo, ox.lo) to (oy.hi−1, ox.hi)
//     moved by a single copy (lowering) or a single vector add (raising).
//     The run crosses the wrap slots: the w − ox.hi + ox.lo = |kx−pad|
//     positions between the last valid column of one output row and the
//     first of the next, where the shifted plane holds the neighbouring
//     row's edge pixels but the tap is in the padding. Lowering zeroes them
//     after the copy; raising zeroes them in the column gradient before the
//     add, which is why raising consumes its source.
//   - every other geometry (stride 2, 'valid' windows, kernels wider than
//     the input): one pass per output row over [ox.lo, ox.hi) (raising does
//     it in raiseRows).
//
// The fringe — everything of a segment outside the valid rows and columns —
// is zero-filled by lowering and never read by raising.
//
// Order of adds. An input pixel receives at most one contribution from a
// given tap, so its gradient is a sum over taps, and both inner loops add
// them in ascending (ky, kx), each as one correctly rounded add onto a plane
// Col2Im has cleared to +0 (the vector add is fma(1, s, d) = d + s rounded
// once). Adding a zeroed wrap slot is x + (+0), which leaves every x but −0
// alone, and a plane that starts at +0 and is only added to never holds −0.
// The sum is therefore the same bits as a scalar scatter in (ky, kx) order,
// whatever the inner loop. All taps of one channel are raised by one caller,
// so a split over channels — disjoint rows of the matrix when lowering,
// disjoint planes when raising — never shows in a result.
//
// Slots and masks. The matrix need not hold every channel: Im2Col lowers the
// channels it is given a list of, the s-th of them into slot s (rows
// [s·kh·kw, (s+1)·kh·kw)), so a caller that knows some channels to be all
// zero — whose rows would be all zero, and add nothing to any product — builds
// the matrix of the others and nothing else (the identity list is the full
// matrix). Col2Im takes a mask over the rows of the full column gradient and
// does not read a row outside it: the caller vouches that such a row is +0
// throughout, and adding it would be x + (+0) on every pixel it reaches, the
// same no-op as a zeroed wrap slot, so leaving the add out keeps every
// surviving add and their order. The planes are cleared all the same; a
// channel all of whose rows are masked out comes back +0.

// outRange returns the [lo, hi) range of output coordinates whose input tap
// o*stride + k - pad lands inside [0, extent).
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

// tapSpan is the range of output coordinates one kernel offset can serve.
type tapSpan struct{ lo, hi int }

// tapSpans appends the span of each of the k kernel offsets along one axis.
// Callers pass a stack-backed buf; a kernel too large for it spills to the
// heap through append.
func tapSpans(buf []tapSpan, extent, k, stride, pad, out int) []tapSpan {
	for t := 0; t < k; t++ {
		lo, hi := outRange(extent, t, stride, pad, out)
		buf = append(buf, tapSpan{lo, hi})
	}
	return buf
}

// zeroWraps zeroes the wrap slots of a plane-shift run: wrap floats at seg[at]
// and at every w floats after it, gaps times.
func zeroWraps(seg []float32, at, w, wrap, gaps int) {
	if wrap == 0 {
		return
	}
	for ; gaps > 0; gaps-- {
		for j := at; j < at+wrap; j++ {
			seg[j] = 0
		}
		at += w
	}
}

// Im2Col lowers channel chans[s] of the batch x (n × c × h × w) into slot s of
// the column matrix cols (len(chans)·kh·kw × n·outH·outW, row-major), for s
// in [lo, hi). Every slot of those rows is written — input pixel or padding
// zero — and nothing outside them; see the file comment for the order and
// the two inner loops.
func Im2Col(cols, x []float32, n, c, h, w, kh, kw, stride, pad, outH, outW int, chans []int, lo, hi int) {
	var stack [16]tapSpan
	oys := tapSpans(stack[:0:8], h, kh, stride, pad, outH)
	oxs := tapSpans(stack[8:8], w, kw, stride, pad, outW)
	spatial, plane := outH*outW, h*w
	ns, img := n*spatial, c*plane
	shifted := stride == 1 && outW == w
	for slot := lo; slot < hi; slot++ {
		ch := chans[slot]
		for ky, oy := range oys {
			for kx, ox := range oxs {
				r := (slot*kh+ky)*kw + kx
				row := cols[r*ns : (r+1)*ns]
				if oy.lo >= oy.hi || ox.lo >= ox.hi {
					clear(row) // the tap never lands inside the input
					continue
				}
				first, last := oy.lo*outW+ox.lo, (oy.hi-1)*outW+ox.hi
				wrapAt, wrap := oy.lo*outW+ox.hi, outW-ox.hi+ox.lo
				off := kx - pad
				shift := (ky-pad)*w + off
				for i := 0; i < n; i++ {
					seg := row[i*spatial : (i+1)*spatial]
					src := x[i*img+ch*plane : i*img+(ch+1)*plane]
					if shifted {
						clear(seg[:first])
						copy(seg[first:last], src[first+shift:])
						zeroWraps(seg, wrapAt, w, wrap, oy.hi-oy.lo-1)
						clear(seg[last:])
						continue
					}
					clear(seg[:oy.lo*outW])
					for o := oy.lo; o < oy.hi; o++ {
						in := src[(o*stride+ky-pad)*w:][:w]
						out := seg[o*outW:][:outW]
						for p := 0; p < ox.lo; p++ {
							out[p] = 0
						}
						for p := ox.lo; p < ox.hi; p++ {
							out[p] = in[p*stride+off]
						}
						for p := ox.hi; p < outW; p++ {
							out[p] = 0
						}
					}
					clear(seg[oy.hi*outW:])
				}
			}
		}
	}
}

// Col2Im raises channels [chLo, chHi) of the column gradient dcols (c·kh·kw
// rows, laid out as Im2Col writes the full matrix) onto their planes of dx
// (n × c × h × w) — the adjoint of Im2Col. Those planes are overwritten:
// cleared, then summed into in ascending (ky, kx), the order the file comment
// derives the result's bits from. Where rows is not empty, a row r with
// !rows[r] is taken to be +0 and is not touched. dcols is consumed: the wrap
// slots of a plane-shift run are set to 0 in it (positions no input pixel
// maps to); nothing else is written.
func Col2Im(dx, dcols []float32, n, c, h, w, kh, kw, stride, pad, outH, outW, chLo, chHi int, rows []bool) {
	var stack [16]tapSpan
	oys := tapSpans(stack[:0:8], h, kh, stride, pad, outH)
	oxs := tapSpans(stack[8:8], w, kw, stride, pad, outW)
	spatial, plane := outH*outW, h*w
	ns, img := n*spatial, c*plane
	shifted, masked := stride == 1 && outW == w, len(rows) != 0
	for ch := chLo; ch < chHi; ch++ {
		for i := 0; i < n; i++ {
			clear(dx[i*img+ch*plane : i*img+(ch+1)*plane])
		}
		for ky, oy := range oys {
			for kx, ox := range oxs {
				r := (ch*kh+ky)*kw + kx
				if oy.lo >= oy.hi || ox.lo >= ox.hi || masked && !rows[r] {
					continue
				}
				row := dcols[r*ns : (r+1)*ns]
				first, last := oy.lo*outW+ox.lo, (oy.hi-1)*outW+ox.hi
				wrapAt, wrap := oy.lo*outW+ox.hi, outW-ox.hi+ox.lo
				off := kx - pad
				shift := (ky-pad)*w + off
				for i := 0; i < n; i++ {
					seg := row[i*spatial : (i+1)*spatial]
					dst := dx[i*img+ch*plane : i*img+(ch+1)*plane]
					if shifted {
						zeroWraps(seg, wrapAt, w, wrap, oy.hi-oy.lo-1)
						axpyRow(dst[first+shift:last+shift], 1, seg[first:last])
						continue
					}
					raiseRows(dst, seg, oy, ox, outW, w, stride, ky-pad, off)
				}
			}
		}
	}
}

// raiseRows adds one image's segment of a column-gradient row onto the image's
// plane, one output row at a time: output position (o, p) lands on input
// pixel (o·stride + top, p·stride + off). It is Col2Im's inner loop for the
// geometries that are not a plane shift, kept out of line: inlined, it shares
// Col2Im's register allocation, which reloads five to seven values from the
// stack per element (the count moved with every variable Col2Im gained); on
// its own the loop is a load, an add and a store, and measures 0.8× the
// inlined time on the stride-2 windows, the call included.
//
//go:noinline
func raiseRows(dst, seg []float32, oy, ox tapSpan, outW, w, stride, top, off int) {
	for o := oy.lo; o < oy.hi; o++ {
		out := dst[(o*stride+top)*w:][:w]
		at := ox.lo*stride + off
		for _, v := range seg[o*outW+ox.lo : o*outW+ox.hi] {
			out[at] += v
			at += stride
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding applied to extent in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
