package tensor

import (
	"fmt"
	"maps"
	"math"
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
// A channel owns kh·kw rows of the matrix and one run of n planes of the
// batch, and both routines go channel by channel. The geometry picks one of
// two ways to move a channel, a fixed rule with no setting:
//
//   - the plane shift, for a stride-1 window whose map keeps its plane
//     (outH == h, outW == w: 'same' 3×3, 1×1) of at least minShiftPixels
//     output pixels. Output position j of image i reads input position j +
//     shift of the same image, with shift = (ky−pad)·w + (kx−pad). A
//     channel's n planes are one run of the CNHW batch, so the whole row is
//     that run shifted: one stretch, from image 0's first valid slot (oy.lo,
//     ox.lo) to image n−1's last (oy.hi−1, ox.hi), moved in one pass through
//     the tap's validity mask — all ones where the tap lands inside the image,
//     +0 where it lands in the padding. Inside the stretch are such padding
//     slots while the shifted run holds a pixel there: the |kx−pad| wrap
//     slots between two output rows of an image, where it holds the
//     neighbouring row's edge pixels, and between two images the fringe, the
//     rows oy leaves out, where it holds pixels of the image before or after.
//     Lowering writes src & mask, so they come out +0; raising adds src &
//     mask, so they add +0 and the column gradient is only read. Lowering
//     clears the slots before and after the stretch; raising clears the planes
//     first and never reads them. The mask of a slot depends on its position
//     in the plane alone, so it is periodic in the plane and a property of
//     the geometry (h, w, window, pad), not of the batch or the channel: the
//     masks of a geometry's taps are built the first time it is met and shared
//     by every call after it (masksFor).
//   - the gather plan, for every other geometry: strided windows, 'valid'
//     ones, windows wider than the input, and the small maps of the late
//     stages, whose rows of 2–72 floats the stretch crossed with more
//     bookkeeping than data. A plan (planFor) is built once per geometry and
//     batch size n, cached like the masks. Its lowering table gives, for each
//     slot of a channel's kh·kw·n·outH·outW block of the matrix, the offset
//     of the pixel it reads in the channel's n planes, or −1 for padding;
//     lowering a channel is one pass over it, 8 slots a step, +0 where it
//     holds −1 (planLower). Its raising table is the same map read the other
//     way: for each block of 8 consecutive pixels of the channel's run, one
//     vector of 8 slot offsets for each tap that some pixel of the block
//     receives, in ascending tap order, −1 in the lanes that do not receive
//     it. Raising a block reads its vectors and adds them, in that order,
//     onto +0, then stores the 8 sums (planRaise): each pixel is written
//     once, and a tap no pixel of the block receives (3 of 4 for a 3×3
//     stride-2 window, on average) costs nothing. Every vector, lowering or
//     raising, is one masked gather of 8 lanes (VGATHERDPS) onto +0.
//
// No bit depends on the way a channel moves. Lowering copies pixels and
// writes +0 elsewhere, so the matrix is the same bytes. Raising adds the same
// terms in the same order, as the next paragraph shows.
//
// Order of adds. An input pixel receives at most one contribution from a
// given tap — from the one slot that reads it — so its gradient is a sum over
// taps, and both ways add them in ascending (ky, kx), each as one correctly
// rounded add onto +0: the plane shift onto planes it has cleared, the plan
// onto a register. Both also add terms that are +0 by construction: the
// stretch's masked wrap and fringe slots, which land on pixels of the same
// image or of a neighbouring one that the tap does not read, and a plan
// vector's −1 lanes, read as +0. Each is x + (+0), which leaves every x
// but −0 alone, and a sum that starts at +0 and is only added to never holds
// −0 (round to nearest gives x + (−x) = +0). The sum is therefore the same
// bits as a scalar scatter in (ky, kx) order, whichever way the channel moves.
// All taps of one channel are raised by one caller, so a split over channels
// — disjoint rows of the matrix when lowering, disjoint runs of planes when
// raising — never shows in a result.
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
// surviving add and their order. Every plane of the channels raised is written
// all the same; a channel all of whose rows are masked out comes back +0.

// minShiftPixels is the smallest map the plane shift moves. Measured on a
// 2-vCPU Xeon VM (family 6 model 207, AVX-512, Go 1.24) at batch 8, medians
// of six alternated runs, the plan's time over the shift's, lowering /
// raising, hot and cold: a 3×3 map (32 channels) 0.33–0.36 / 0.59–0.74, a
// 4×4 one (32 channels) 0.68–0.70 / 0.76–0.89, a 6×6 one (16 channels)
// 0.84–1.06 / 0.84–1.27, an 8×8 one (16 channels) 1.02–1.13 / 1.22–1.35. The
// crossover lies between 4×4 and 6×6, so 16 is not the measured crossover
// (about 36 would be): maps of 16 to 35 pixels, the 4×4 maps of a 16×16
// ResNet18 among them, stay on the slower way. It is where the plane shift's
// contract and guard tests put their maps (16 to 72 pixels); moving it to the
// crossover means moving those tests' geometries above it first (ROADMAP item
// 2). The benchmark's training workloads have no map of 16 to 35 pixels.
const minShiftPixels = 16

// planeShift reports whether a geometry is moved by the plane shift: a
// stride-1 window whose map is the input's, of at least minShiftPixels.
func planeShift(h, w, stride, outH, outW int) bool {
	return stride == 1 && outH == h && outW == w && outH*outW >= minShiftPixels
}

// tapSpan is what one kernel offset does along an axis of a plane shift: the
// range [lo, hi) of output coordinates it serves, each reading input
// coordinate o + d.
type tapSpan struct{ lo, hi, d int }

func (sp tapSpan) empty() bool { return sp.lo >= sp.hi }

// tapSpans appends the span of each of the k kernel offsets along one axis of
// a plane shift (stride 1, out == extent): output o reads o + t − pad, inside
// [0, extent) for o in [pad − t, extent + pad − t), clamped to the map; a tap
// past the padded extent serves no output (a kernel larger than the input).
// Callers pass a stack-backed buf; a kernel too large for it spills to the
// heap through append.
func tapSpans(buf []tapSpan, extent, k, pad int) []tapSpan {
	for t := 0; t < k; t++ {
		d := t - pad
		hi := min(max(extent-d, 0), extent)
		buf = append(buf, tapSpan{lo: min(max(-d, 0), hi), hi: hi, d: d})
	}
	return buf
}

// stretch returns the slots [first, last) of a batch-wide row that tap
// (oy, ox) of a plane shift moves — from image 0's first slot the tap serves
// to image n−1's last — and the shift from a slot to the pixel it reads.
// first lies in image 0's map, below one plane, so it is also the stretch's
// offset into the masks' period.
func stretch(oy, ox tapSpan, n, h, w int) (first, last, shift int) {
	return oy.lo*w + ox.lo, ((n-1)*h+oy.hi-1)*w + ox.hi, oy.d*w + ox.d
}

// geomCache holds what is built once per geometry and shared by every call
// after it: the plane shift's masks and the gather plans. The map is copied
// on write under mu and read without a lock, so a lookup allocates nothing.
// Past maxCachedGeoms entries, a build evicts the entry least recently looked
// up, and only that one: a plan is keyed by batch size too, so each
// evaluation batch size (a test set's last, partial batch) adds entries,
// while the layers being trained look theirs up every step and keep them.
type geomCache[K comparable, V any] struct {
	mu     sync.Mutex
	m      atomic.Pointer[map[K]*geomEntry[V]]
	builds atomic.Int64 // the cache's clock: builds so far
}

// geomEntry is a cached value and the clock at its last lookup, rewritten
// only when a build has moved the clock since, so a steady run of lookups
// writes nothing.
type geomEntry[V any] struct {
	v    V
	used atomic.Int64
}

const maxCachedGeoms = 64

// get returns the value cached under key, building it first if it is not.
func (c *geomCache[K, V]) get(key K, build func() V) V {
	if m := c.m.Load(); m != nil {
		if e, ok := (*m)[key]; ok {
			if now := c.builds.Load(); e.used.Load() != now {
				e.used.Store(now)
			}
			return e.v
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.m.Load()
	if old != nil {
		if e, ok := (*old)[key]; ok {
			return e.v
		}
	}
	e := &geomEntry[V]{v: build()}
	e.used.Store(c.builds.Add(1))
	next := map[K]*geomEntry[V]{}
	if old != nil {
		maps.Copy(next, *old)
	}
	if len(next) >= maxCachedGeoms {
		stale, oldest := key, int64(math.MaxInt64)
		for k, oe := range next {
			if u := oe.used.Load(); u < oldest {
				stale, oldest = k, u
			}
		}
		delete(next, stale)
	}
	next[key] = e
	c.m.Store(&next)
	return e.v
}

// planeMasks are the validity masks of a plane-shift geometry's taps: entry
// i of tap (ky, kx)'s mask is all ones when output position i mod plane of an
// image (plane = h·w) reads a pixel at that tap, and 0 when it reads padding.
// period is the smallest multiple of the plane that is at least 32, and each
// mask holds period + 32 entries, so the AVX2 kernels can read a whole step
// from any offset below period (maskCopyAVX).
type planeMasks struct {
	period int
	bits   []uint32 // tap t's mask at t·(period+32)
}

// tap returns the mask of tap t = ky·kw + kx.
func (pm *planeMasks) tap(t int) []uint32 {
	n := pm.period + 32
	return pm.bits[t*n : (t+1)*n]
}

type maskKey struct{ h, w, kh, kw, pad int }

var maskCache geomCache[maskKey, *planeMasks]

// masksFor returns the masks of the plane shift of an h × w plane under a
// kh × kw window with the given padding, whose taps span oys and oxs.
func masksFor(h, w, kh, kw, pad int, oys, oxs []tapSpan) *planeMasks {
	return maskCache.get(maskKey{h, w, kh, kw, pad}, func() *planeMasks {
		plane := h * w
		pm := &planeMasks{period: plane * ((32 + plane - 1) / plane)}
		pm.bits = make([]uint32, kh*kw*(pm.period+32))
		for ky, oy := range oys {
			for kx, ox := range oxs {
				m := pm.tap(ky*kw + kx)
				for i := range m {
					o, p := i%plane/w, i%w
					if o >= oy.lo && o < oy.hi && p >= ox.lo && p < ox.hi {
						m[i] = ^uint32(0)
					}
				}
			}
		}
		return pm
	})
}

// gatherPlan is how one geometry that is not a plane shift moves a channel,
// at one batch size (see the file comment). Its vectors are 8 lanes of int32,
// the width of the AVX2 gather's indices; lane l of a vector reads src[lane]
// of its source, or nothing (+0) where lane is −1.
type gatherPlan struct {
	// lower's vector v, lower[8v : 8v+8], fills slots [8v, 8v+8) of a
	// channel's kh·kw·n·outH·outW block of the column matrix from the
	// channel's n planes; lanes past the block are −1.
	lower []int32
	// raise's vector e, raise[8e : 8e+8], is a tap, taps[e], read from the
	// channel's block of the column gradient into the pixels of one block of
	// 8 that receive it. Block b of 8 pixels owns vectors [ends[b−1], ends[b])
	// (from 0 for b = 0).
	raise, taps, ends []int32
	// all is kh·kw trues: the row mask of a raise that has none.
	all []bool
}

// gather8 returns the vector lanes[:8] reads from src.
func gather8(lanes []int32, src []float32) (out [8]float32) {
	for l, j := range lanes[:8] {
		if j >= 0 {
			out[l] = src[j]
		}
	}
	return out
}

type planKey struct{ n, h, w, kh, kw, stride, pad, outH, outW int }

var planCache geomCache[planKey, *gatherPlan]

// planFor returns the gather plan of n images of h × w under a kh × kw window
// with the given stride and padding, whose map is outH × outW.
func planFor(n, h, w, kh, kw, stride, pad, outH, outW int) *gatherPlan {
	return planCache.get(planKey{n, h, w, kh, kw, stride, pad, outH, outW}, func() *gatherPlan {
		return buildPlan(n, h, w, kh, kw, stride, pad, outH, outW)
	})
}

// buildPlan allocates the plan's tables at their final length and nothing
// else: the lowering table is one lane per slot, and a first pass over the
// raising vectors counts them.
func buildPlan(n, h, w, kh, kw, stride, pad, outH, outW int) *gatherPlan {
	kk, spatial, px := kh*kw, outH*outW, n*h*w
	ns := n * spatial
	if kk*ns > math.MaxInt32 || px > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: a lowering of %d × %d slots does not fit int32 offsets", kk, ns))
	}
	p := &gatherPlan{lower: make([]int32, (kk*ns+7)/8*8), all: make([]bool, kk)}
	for j := range p.lower {
		p.lower[j] = -1
	}
	for t := range kk {
		p.all[t] = true
		ky, kx := t/kw, t%kw
		for i := range n {
			for oy := range outH {
				iy := oy*stride + ky - pad
				for ox := range outW {
					if ix := ox*stride + kx - pad; iy >= 0 && iy < h && ix >= 0 && ix < w {
						p.lower[t*ns+(i*outH+oy)*outW+ox] = int32((i*h+iy)*w + ix)
					}
				}
			}
		}
	}
	// recv returns the slot of tap t that pixel q receives, −1 for none: the
	// lowering read backwards, input row iy = oy·stride + ky − pad.
	recv := func(t, q int) int32 {
		dy, dx := q/w%h+pad-t/kw, q%w+pad-t%kw
		if q >= px || dy < 0 || dx < 0 || dy%stride != 0 || dx%stride != 0 || dy/stride >= outH || dx/stride >= outW {
			return -1
		}
		return int32(t*ns + (q/(h*w)*outH+dy/stride)*outW + dx/stride)
	}
	blocks := (px + 7) / 8
	p.ends = make([]int32, blocks)
	for pass := range 2 {
		e := 0
		for b := range blocks {
			for t := range kk {
				var lanes [8]int32
				live := false
				for l := range lanes {
					lanes[l] = recv(t, 8*b+l)
					live = live || lanes[l] >= 0
				}
				if !live {
					continue
				}
				if pass == 1 {
					copy(p.raise[8*e:], lanes[:])
					p.taps[e] = int32(t)
				}
				e++
			}
			p.ends[b] = int32(e)
		}
		if pass == 0 {
			p.raise, p.taps = make([]int32, 8*e), make([]int32, e)
		}
	}
	return p
}

// planLower writes a channel's block of the column matrix from its n planes
// through a plan's lowering table: slot j the pixel it reads, +0 for padding.
func planLower(dst, src []float32, lower []int32) {
	_ = lower[len(dst)-1]
	if hasDot4 {
		planLowerAVX(&dst[0], &src[0], &lower[0], len(dst))
		return
	}
	for v := range (len(dst) + 7) / 8 {
		vals := gather8(lower[8*v:], src)
		copy(dst[8*v:], vals[:])
	}
}

// planRaise writes a channel's n planes from its block of the column gradient
// through a plan's raising table: each pixel the sum, onto +0 in ascending
// tap order, of the slots that read it, leaving out the taps t with !live[t].
func planRaise(dst, src []float32, p *gatherPlan, live []bool) {
	_ = live[len(p.all)-1]
	if len(p.taps) == 0 {
		clear(dst) // no tap lands inside the input
		return
	}
	if hasDot4 {
		planRaiseAVX(&dst[0], &src[0], &p.ends[0], &p.taps[0], &p.raise[0], &live[0], len(dst))
		return
	}
	e := 0
	for b, end := range p.ends {
		var acc [8]float32
		for ; e < int(end); e++ {
			if live[p.taps[e]] {
				vals := gather8(p.raise[8*e:], src)
				for l, v := range vals {
					acc[l] += v
				}
			}
		}
		copy(dst[8*b:], acc[:])
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
// file comment for the two ways a channel is moved.
func Im2Col(cols, x []float32, n, h, w, kh, kw, stride, pad, outH, outW int, chans []int, lo, hi int) {
	px, ns := n*h*w, n*outH*outW
	block := kh * kw * ns
	if !planeShift(h, w, stride, outH, outW) {
		p := planFor(n, h, w, kh, kw, stride, pad, outH, outW)
		for slot := lo; slot < hi; slot++ {
			planLower(cols[slot*block:(slot+1)*block], x[chans[slot]*px:(chans[slot]+1)*px], p.lower)
		}
		return
	}
	var stack [16]tapSpan
	oys := tapSpans(stack[:0:8], h, kh, pad)
	oxs := tapSpans(stack[8:8], w, kw, pad)
	pm := masksFor(h, w, kh, kw, pad, oys, oxs)
	for slot := lo; slot < hi; slot++ {
		planes := x[chans[slot]*px : (chans[slot]+1)*px]
		for ky, oy := range oys {
			for kx, ox := range oxs {
				r := (slot*kh+ky)*kw + kx
				row := cols[r*ns : (r+1)*ns]
				if oy.empty() || ox.empty() {
					clear(row) // the tap never lands inside the input
					continue
				}
				first, last, shift := stretch(oy, ox, n, h, w)
				clear(row[:first])
				maskCopy(row[first:last], planes[first+shift:], pm.tap(ky*kw+kx), first, pm.period)
				clear(row[last:])
			}
		}
	}
}

// Col2Im raises channels [chLo, chHi) of the column gradient dcols (laid out
// as Im2Col writes the full matrix) onto their planes of the CNHW batch dx —
// the adjoint of Im2Col. Those planes are overwritten with sums onto +0 in
// ascending (ky, kx), the order the file comment derives the result's bits
// from. Where rows is not empty, a row r with !rows[r] is taken to be +0 and
// is not read. dcols is only read.
func Col2Im(dx, dcols []float32, n, h, w, kh, kw, stride, pad, outH, outW, chLo, chHi int, rows []bool) {
	kk, px, ns := kh*kw, n*h*w, n*outH*outW
	masked := len(rows) != 0
	if !planeShift(h, w, stride, outH, outW) {
		p := planFor(n, h, w, kh, kw, stride, pad, outH, outW)
		for ch := chLo; ch < chHi; ch++ {
			live := p.all
			if masked {
				live = rows[ch*kk : (ch+1)*kk]
			}
			planRaise(dx[ch*px:(ch+1)*px], dcols[ch*kk*ns:(ch+1)*kk*ns], p, live)
		}
		return
	}
	var stack [16]tapSpan
	oys := tapSpans(stack[:0:8], h, kh, pad)
	oxs := tapSpans(stack[8:8], w, kw, pad)
	pm := masksFor(h, w, kh, kw, pad, oys, oxs)
	for ch := chLo; ch < chHi; ch++ {
		planes := dx[ch*px : (ch+1)*px]
		clear(planes)
		for ky, oy := range oys {
			for kx, ox := range oxs {
				r := (ch*kh+ky)*kw + kx
				if oy.empty() || ox.empty() || masked && !rows[r] {
					continue
				}
				row := dcols[r*ns : (r+1)*ns]
				first, last, shift := stretch(oy, ox, n, h, w)
				maskAdd(planes[first+shift:last+shift], row[first:last], pm.tap(ky*kw+kx), first, pm.period)
			}
		}
	}
}

// ConvOutSize returns the spatial output size of a convolution or pooling
// window of size k with the given stride and padding applied to extent in.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}
