package tensor

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Lowering and raising: convolution as GEMM.
//
// Im2Col lowers a CNHW batch (plane of channel ch, image i at (ch·n + i)·h·w)
// into one column matrix of c·kh·kw rows and n·outH·outW columns: row
// (ch, ky, kx) holds, for image i at columns [i·spatial, (i+1)·spatial), the
// input pixel tap (ky, kx) reads for every output position, and 0 where that
// tap lands in the padding; a GEMM against it writes CNHW. Col2Im is its
// adjoint: it sums a column gradient back onto the input planes.
//
// Both walk the matrix row by row. A row's tap geometry — the output rows
// [oy.lo, oy.hi) and columns [ox.lo, ox.hi) whose tap lands inside the input —
// depends on (ky, kx) alone, so outRange runs kh + kw times a call, and the
// geometry picks one of three ways to move a row:
//
//   - stride == 1, outH == h and outW == w ('same' 3×3, 1×1 — the map keeps
//     its plane): output position j of image i reads input position j +
//     shift of the same image, with shift = (ky−pad)·w + (kx−pad). A
//     channel's n planes are one run of the CNHW batch, so the whole row is
//     that run shifted: one stretch, from image 0's first valid slot
//     (oy.lo, ox.lo) to image n−1's last (oy.hi−1, ox.hi), moved in one pass
//     through the tap's validity mask — all ones where the tap lands inside
//     the image, +0 where it lands in the padding. Inside the stretch are
//     such padding slots while the shifted run holds a pixel there: the
//     |kx−pad| wrap slots between two output rows of an image, where it
//     holds the neighbouring row's edge pixels, and between two images the
//     fringe, the rows oy leaves out, where it holds pixels of the image
//     before or after. Lowering writes src & mask, so they come out +0;
//     raising adds src & mask, so they add +0 and the column gradient is
//     only read. Lowering clears the slots before and after the stretch;
//     raising never reads them. The mask of a slot depends on its position
//     in the plane alone, so it is periodic in the plane and is a property of
//     the geometry (h, w, tap, stride, pad), not of the batch or the channel:
//     the masks of a geometry's taps are built the first time it is met and
//     shared by every call after it (masksFor).
//   - a strided 'same' window (outH == ⌈h/s⌉, outW == ⌈w/s⌉ and a window
//     of more than one tap) is the same shift on phase planes. Phase (a, b)
//     of an image holds its input rows a, a+s, … and columns b, b+s, …, laid
//     out outH × outW. Tap (ky, kx) reads only phase ((ky−pad) mod s,
//     (kx−pad) mod s), at offset (dy, dx) = (⌊(ky−pad)/s⌋, ⌊(kx−pad)/s⌋):
//     output (o, p) reads the phase's pixel (o+dy, p+dx). So the row is that
//     phase's batch run shifted by dy·outW + dx, moved through the tap's mask
//     as above, a slot valid iff 0 ≤ o+dy < ⌈(h−a)/s⌉ and 0 ≤ p+dx <
//     ⌈(w−b)/s⌉. An odd side makes a phase shorter than outH or outW; the
//     mask covers its tail, which is never read unmasked. At s = 1 the one
//     phase is the plane itself and nothing is copied: this is the branch
//     above. At s > 1 lowering first copies, channel by channel, the phases
//     some tap reads into call-scoped scratch (phasePool); raising clears
//     them, adds the rows into them and then copies them back onto the
//     channel's planes, a pixel of a phase no tap reads coming back +0.
//   - every other geometry ('valid' windows, strided 1×1 windows, kernels
//     wider than the input): image by image, one pass per output row over
//     [ox.lo, ox.hi) (raising does it in raiseRows); lowering zero-fills the
//     rest of the image's segment, and raising never reads it. A strided 1×1
//     window reads one phase of s², and a lowering plus a raising of it
//     measured slower as a phase copy and a stretch than on this loop.
//
// No bit depends on the way a row moves. Lowering copies pixels and writes
// +0 elsewhere, so the matrix is the same bytes. Raising adds the same terms
// in the same order, whether onto a plane or onto a phase that is then
// copied onto it, as the next paragraph shows.
//
// Order of adds. An input pixel receives at most one contribution from a
// given tap — from the one slot that reads it — so its gradient is a sum over
// taps, and every way adds them in ascending (ky, kx), each as one correctly
// rounded add onto a plane (or phase) Col2Im has cleared to +0. The stretch
// also lands its masked wrap and fringe slots on pixels, of the same image or
// of a neighbouring one, that the tap does not read; each is x + (+0), which
// leaves every x but −0 alone, and a plane that starts at +0 and is only
// added to never holds −0. The sum is therefore the same bits as a scalar scatter in
// (ky, kx) order, whichever way the row moves. All taps of one channel are
// raised by one caller, so a split over channels — disjoint rows of the
// matrix when lowering, disjoint runs of planes when raising — never shows in
// a result.
//
// Slots and masks. The matrix need not hold every channel: Im2Col lowers the
// channels it is given a list of, the s-th of them into slot s (rows
// [s·kh·kw, (s+1)·kh·kw)), so a caller that knows some channels to be all
// zero — whose rows would be all zero, and add nothing to any product — builds
// the matrix of the others and nothing else (the identity list is the full
// matrix). Col2Im takes a mask over the rows of the full column gradient and
// does not read a row outside it: the caller vouches that such a row is +0
// throughout, and adding it would be x + (+0) on every pixel it reaches, the
// same no-op as a masked wrap slot, so leaving the add out keeps every
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

// tapSpan is what one kernel offset t does along an axis: the range [lo, hi)
// of output coordinates it serves, and where it reads — phase ph = (t−pad)
// mod stride at offset d = ⌊(t−pad)/stride⌋, so output o reads phase
// coordinate o + d. slot is ph's index among the phases the window reads
// (readPhases); at stride 1 it is 0, the planes themselves.
type tapSpan struct{ lo, hi, ph, d, slot int }

func (sp tapSpan) empty() bool { return sp.lo >= sp.hi }

// tapSpans appends the span of each of the k kernel offsets along one axis.
// Callers pass a stack-backed buf; a kernel too large for it spills to the
// heap through append.
func tapSpans(buf []tapSpan, extent, k, stride, pad, out int) []tapSpan {
	for t := 0; t < k; t++ {
		lo, hi := outRange(extent, t, stride, pad, out)
		d := t - pad
		if d < 0 {
			d -= stride - 1 // floor, not truncation
		}
		d /= stride
		buf = append(buf, tapSpan{lo: lo, hi: hi, ph: t - pad - d*stride, d: d})
	}
	return buf
}

// readPhases appends to buf, once each in the order the taps first meet them,
// the phases that the taps of spans serving some output read, and sets each
// such tap's slot to its phase's index in the list.
func readPhases(buf []int, spans []tapSpan) []int {
	for i := range spans {
		if sp := &spans[i]; !sp.empty() {
			if sp.slot = slices.Index(buf, sp.ph); sp.slot < 0 {
				sp.slot, buf = len(buf), append(buf, sp.ph)
			}
		}
	}
	return buf
}

// planeShift reports whether a window is lowered by the phase-plane shift:
// its map is the input's, divided by the stride and rounded up, and at a
// stride above 1 its window is wider than one tap. A strided 1×1 window reads
// one phase of stride², so its phase form is mostly the copy; it raised
// 1.2–1.5× slower than the row loop and lowered no faster than 0.84×.
func planeShift(h, w, kh, kw, stride, outH, outW int) bool {
	return outH == (h+stride-1)/stride && outW == (w+stride-1)/stride && (stride == 1 || kh*kw > 1)
}

// stretch returns the slots [first, last) of a batch-wide row that tap
// (oy, ox) of a plane shift moves — from image 0's first slot the tap serves
// to image n−1's last — and the shift from a slot to the phase position it
// reads. first lies in image 0's map, below one plane, so it is also the
// stretch's offset into the masks' period.
func stretch(oy, ox tapSpan, n, outH, outW int) (first, last, shift int) {
	return oy.lo*outW + ox.lo, ((n-1)*outH+oy.hi-1)*outW + ox.hi, oy.d*outW + ox.d
}

// planeMasks are the validity masks of a plane-shift geometry's taps: entry
// i of tap (ky, kx)'s mask is all ones when output position i mod plane of an
// image (plane = outH·outW) reads a pixel at that tap, and 0 when it reads
// padding or past a short phase. period is the smallest multiple of the plane
// that is at least 32, and each mask holds period + 32 entries, so the AVX2
// kernels can read a whole step from any offset below period (maskCopyAVX).
type planeMasks struct {
	period int
	bits   []uint32 // tap t's mask at t·(period+32)
}

// tap returns the mask of tap t = ky·kw + kx.
func (pm *planeMasks) tap(t int) []uint32 {
	n := pm.period + 32
	return pm.bits[t*n : (t+1)*n]
}

type maskKey struct{ h, w, kh, kw, stride, pad int }

// maskCache maps each plane-shift geometry met so far to its masks. It is
// copied on write under maskMu and read without a lock; a geometry's masks
// are a few KiB and a run meets a handful of geometries, so the map is
// started over only past maxMaskGeoms.
var (
	maskMu    sync.Mutex
	maskCache atomic.Pointer[map[maskKey]*planeMasks]
)

const maxMaskGeoms = 64

// masksFor returns the masks of the plane-shift geometry of an h × w plane
// under a kh × kw window with the given stride and padding, whose outH × outW
// map the taps span along oys and oxs.
func masksFor(h, w, kh, kw, stride, pad, outH, outW int, oys, oxs []tapSpan) *planeMasks {
	key := maskKey{h, w, kh, kw, stride, pad}
	if m := maskCache.Load(); m != nil {
		if pm := (*m)[key]; pm != nil {
			return pm
		}
	}
	maskMu.Lock()
	defer maskMu.Unlock()
	old := maskCache.Load()
	if old != nil {
		if pm := (*old)[key]; pm != nil {
			return pm
		}
	}
	plane := outH * outW
	pm := &planeMasks{period: plane * ((32 + plane - 1) / plane)}
	pm.bits = make([]uint32, kh*kw*(pm.period+32))
	for ky, oy := range oys {
		for kx, ox := range oxs {
			m := pm.tap(ky*kw + kx)
			for i := range m {
				o, p := i%plane/outW, i%outW
				if o >= oy.lo && o < oy.hi && p >= ox.lo && p < ox.hi {
					m[i] = ^uint32(0)
				}
			}
		}
	}
	next := map[maskKey]*planeMasks{key: pm}
	if old != nil && len(*old) < maxMaskGeoms {
		for k, v := range *old {
			next[k] = v
		}
	}
	maskCache.Store(&next)
	return pm
}

// phasePool holds the call-scoped phase planes of strided plane shifts: one
// channel's read phases at a time, reused across the channels of a call.
// Pointers are pooled to avoid boxing slice headers.
var phasePool = sync.Pool{New: func() any { return new([]float32) }}

// getPhases returns a pooled buffer of n floats, contents undefined.
func getPhases(n int) *[]float32 {
	p := phasePool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

// shiftFor returns what a plane-shift geometry moves its rows with: the
// masks of its taps, its phase layout (ps, 16 ints, backs the phase lists and
// spans' slots) and, above stride 1, a pooled buffer for one channel's read
// phases, which the caller puts back. pm is nil where the row loop moves the
// rows instead.
func shiftFor(ps []int, oys, oxs []tapSpan, n, h, w, kh, kw, stride, pad, outH, outW int) (pm *planeMasks, g phaseGeom, buf *[]float32) {
	if !planeShift(h, w, kh, kw, stride, outH, outW) {
		return nil, g, nil
	}
	pm = masksFor(h, w, kh, kw, stride, pad, outH, outW, oys, oxs)
	g = phaseGeom{n, h, w, stride, outH, outW, readPhases(ps[:0:8], oys), readPhases(ps[8:8], oxs)}
	if stride > 1 {
		buf = getPhases(len(g.ra) * len(g.rb) * n * outH * outW)
	}
	return pm, g, buf
}

// phaseGeom is one strided plane shift's layout of the phase planes: the row
// and column phases read (in slot order), each phase plane n · outH · outW
// floats, phase (ra[i], rb[j]) at ((i·len(rb) + j)·n + image)·outH·outW.
type phaseGeom struct {
	n, h, w, stride, outH, outW int
	ra, rb                      []int
}

// copyPhases copies a channel's read phases between its n planes and
// phases: into phases, or, with back set, back onto the planes, where a pixel
// of a phase no tap reads is set to +0. Copying in leaves the rows and columns
// of a short phase past its end as they were; the masks never let them
// through.
func (g *phaseGeom) copyPhases(phases, planes []float32, back bool) {
	n, h, w, s, outW := g.n, g.h, g.w, g.stride, g.outW
	spatial := g.outH * outW
	if back && (len(g.ra) < s || len(g.rb) < s) {
		clear(planes)
	}
	for bi, b := range g.rb {
		wb := (w - b + s - 1) / s // a phase's width, once per call: a division
		for ai, a := range g.ra {
			ph := phases[(ai*len(g.rb)+bi)*n*spatial:][:n*spatial]
			for i := 0; i < n; i++ {
				img := planes[i*h*w : (i+1)*h*w]
				for r, y := i*spatial, a; y < h; r, y = r+outW, y+s {
					row, px := ph[r:r+wb], img[y*w+b:]
					if back {
						for q, v := range row {
							px[q*s] = v
						}
					} else {
						for q := range row {
							row[q] = px[q*s]
						}
					}
				}
			}
		}
	}
}

// maskCopy writes dst[j] = src[j] & mask[(q+j) mod period], so a masked slot
// is +0 and any other the source's bits.
func maskCopy(dst, src []float32, mask []uint32, q, period int) {
	_ = mask[period+31]
	if hasDot4 && len(dst) > 0 {
		maskCopyAVX(&dst[0], &src[:len(dst)][0], &mask[0], len(dst), q, period)
		return
	}
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] = math.Float32frombits(math.Float32bits(v) & mask[q])
		if q++; q == period {
			q = 0
		}
	}
}

// maskAdd adds src[j] & mask[(q+j) mod period] onto dst[j], one float32 add
// each: a masked slot adds +0.
func maskAdd(dst, src []float32, mask []uint32, q, period int) {
	_ = mask[period+31]
	if hasDot4 && len(dst) > 0 {
		maskAddAVX(&dst[0], &src[:len(dst)][0], &mask[0], len(dst), q, period)
		return
	}
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] += math.Float32frombits(math.Float32bits(v) & mask[q])
		if q++; q == period {
			q = 0
		}
	}
}

// Im2Col lowers channel chans[s] of the CNHW batch x (n planes of h × w a
// channel) into slot s of the column matrix cols (len(chans)·kh·kw ×
// n·outH·outW, row-major), for s in [lo, hi). Every slot of those rows is
// written — input pixel or padding zero — and nothing outside them; see the
// file comment for the order and the three ways a row is moved.
func Im2Col(cols, x []float32, n, h, w, kh, kw, stride, pad, outH, outW int, chans []int, lo, hi int) {
	var stack [16]tapSpan
	oys := tapSpans(stack[:0:8], h, kh, stride, pad, outH)
	oxs := tapSpans(stack[8:8], w, kw, stride, pad, outW)
	spatial, plane := outH*outW, h*w
	ns := n * spatial
	var ps [16]int
	pm, g, buf := shiftFor(ps[:], oys, oxs, n, h, w, kh, kw, stride, pad, outH, outW)
	for slot := lo; slot < hi; slot++ {
		planes := x[chans[slot]*n*plane : (chans[slot]+1)*n*plane]
		phases := planes // at stride 1, the one phase
		if buf != nil {
			g.copyPhases(*buf, planes, false)
			phases = *buf
		}
		for ky, oy := range oys {
			for kx, ox := range oxs {
				r := (slot*kh+ky)*kw + kx
				row := cols[r*ns : (r+1)*ns]
				if oy.empty() || ox.empty() {
					clear(row) // the tap never lands inside the input
					continue
				}
				if pm != nil {
					phase := phases[(oy.slot*len(g.rb)+ox.slot)*ns:][:ns]
					first, last, shift := stretch(oy, ox, n, outH, outW)
					clear(row[:first])
					maskCopy(row[first:last], phase[first+shift:], pm.tap(ky*kw+kx), first, pm.period)
					clear(row[last:])
					continue
				}
				for i := 0; i < n; i++ {
					lowerRows(row[i*spatial:(i+1)*spatial], planes[i*plane:(i+1)*plane], oy, ox, outW, w, stride, ky-pad, kx-pad)
				}
			}
		}
	}
	if buf != nil {
		phasePool.Put(buf)
	}
}

// Col2Im raises channels [chLo, chHi) of the column gradient dcols (laid out
// as Im2Col writes the full matrix) onto their planes of the CNHW batch dx —
// the adjoint of Im2Col. Those planes are overwritten:
// cleared, then summed into in ascending (ky, kx), the order the file comment
// derives the result's bits from. Where rows is not empty, a row r with
// !rows[r] is taken to be +0 and is not read. dcols is only read.
func Col2Im(dx, dcols []float32, n, h, w, kh, kw, stride, pad, outH, outW, chLo, chHi int, rows []bool) {
	var stack [16]tapSpan
	oys := tapSpans(stack[:0:8], h, kh, stride, pad, outH)
	oxs := tapSpans(stack[8:8], w, kw, stride, pad, outW)
	spatial, plane := outH*outW, h*w
	ns := n * spatial
	masked := len(rows) != 0
	var ps [16]int
	pm, g, buf := shiftFor(ps[:], oys, oxs, n, h, w, kh, kw, stride, pad, outH, outW)
	for ch := chLo; ch < chHi; ch++ {
		planes := dx[ch*n*plane : (ch+1)*n*plane]
		phases := planes // at stride 1, the one phase
		if buf != nil {
			phases = *buf
		}
		clear(phases)
		for ky, oy := range oys {
			for kx, ox := range oxs {
				r := (ch*kh+ky)*kw + kx
				if oy.empty() || ox.empty() || masked && !rows[r] {
					continue
				}
				row := dcols[r*ns : (r+1)*ns]
				if pm != nil {
					phase := phases[(oy.slot*len(g.rb)+ox.slot)*ns:][:ns]
					first, last, shift := stretch(oy, ox, n, outH, outW)
					maskAdd(phase[first+shift:last+shift], row[first:last], pm.tap(ky*kw+kx), first, pm.period)
					continue
				}
				for i := 0; i < n; i++ {
					raiseRows(planes[i*plane:(i+1)*plane], row[i*spatial:(i+1)*spatial], oy, ox, outW, w, stride, ky-pad, kx-pad)
				}
			}
		}
		if buf != nil {
			g.copyPhases(phases, planes, true)
		}
	}
	if buf != nil {
		phasePool.Put(buf)
	}
}

// lowerRows writes one image's segment of a row of the column matrix from the
// image's plane, one output row at a time: output position (o, p) reads input
// pixel (o·stride + top, p·stride + off), and every other slot of the segment
// is written +0. It is Im2Col's row loop, kept out of line for the reason
// raiseRows is: inlined, it shares Im2Col's register allocation, and a
// strided 1×1 window lowered 0.6–0.9× as fast.
//
//go:noinline
func lowerRows(seg, src []float32, oy, ox tapSpan, outW, w, stride, top, off int) {
	clear(seg[:oy.lo*outW])
	for o := oy.lo; o < oy.hi; o++ {
		in := src[(o*stride+top)*w:][:w]
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
