package fed

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/tensor"
)

// Wire format v5 (all fixed-width integers little-endian, counts unsigned
// varints; the maintained reference is docs/WIRE_FORMAT.md):
//
//	frame   := kind(uint8) length(uint32) payload
//	payload :=
//	  Hello       clientID(uint32) jobFingerprint(uint64) quant(uint8)
//	              flags(uint8) lastVersion(uvarint)
//	              flags: bit0 rejoin, bit1 join
//	  RoundStart  taskIdx(uint32) round(uint32) flags(uint8)
//	              flags: bit0 participate, bit1 taskDone
//	  Update      clientID(uint32) flags(uint8) weight(float64)
//	              computeSeconds(float64) upBytes(uint64) downBytes(uint64)
//	              baseVersion(uvarint) params
//	              flags: bit0 participating
//	  GlobalModel version(uvarint) flags(uint8) params
//	              flags: bit0 taskFinal
//	  RoundEnd    clientID(uint32) flags(uint8) n(uint64) n×float64
//	              flags: bit0 dead
//	  Catchup     taskIdx(uint32) seen(uvarint) version(uvarint) flags(uint8)
//	              params
//	              flags: bit0 taskFinal, bit1 taskDone
//	  Leave       clientID(uint32)
//
// v5 adds elastic membership: the Hello flags byte grew bit1 (join — a
// seatless client asking the server to assign one; clientID must be 0 and
// the server replies with a seat-assignment Hello carrying the assigned ID,
// then a v4 Catchup positioning the joiner), and the new Leave frame retires
// a seat cleanly. Existing frame layouts are byte-identical to v4, so a
// fixed cohort's wire bytes are unchanged; v4 and v5 binaries still refuse
// to interoperate at the fingerprint handshake (formatVersion bump). v4
// added the rejoin path: the Hello frame grew a flags byte (bit0 marks a
// rejoining client) and the client's last-seen global version, and the new
// Catchup frame is the server's re-admission reply. v3 added the
// global-version plumbing the asynchronous scheduler needs
// (Update.baseVersion, GlobalModel.version/taskFinal); everything else is
// the v2 layout unchanged. Version fields are uvarints, so a synchronous
// run pays 1 + 2 extra bytes per round trip at low versions.
//
// Parameter vectors travel as a self-describing params block:
//
//	params := format(uint8) n(uvarint) body
//	format := value(bit0-1: 0 float32, 1 float16, 2 int8) | sparse(bit2)
//	dense  body := [scale(float32) if int8] n×value
//	sparse body := k(uvarint) [scale(float32) if int8]
//	               k×gap(uvarint) k×value
//
// A sparse block stores only k of the n coordinates: gaps are the
// varint-delta-coded index increments (index₀ = gap₀, indexᵢ =
// indexᵢ₋₁ + 1 + gapᵢ — strictly ascending by construction), so bytes on
// the wire scale with the active knowledge, not the model. With float32
// values both dense and sparse blocks carry raw IEEE-754 bit patterns and
// the encoder picks whichever is smaller: a wire run stays bit-identical to
// a loopback run. The float16/int8 value encodings (per-tensor symmetric
// scale for int8) are lossy and therefore opt-in, negotiated in the Hello
// handshake.
//
// Choosing the form of a dense vector and building its sparse block is the
// server's largest per-commit cost (a global model is always handed over
// dense), so it is done by stream compaction rather than by branching on each
// coordinate: compactNonZero turns a block of coordinates into the ascending
// list of its non-zero indices, and their values, without a data-dependent
// branch. "Non-zero" means a non-zero bit pattern, not a non-zero value:
// negative zero (and every NaN) is stored, because dropping -0 would decode as
// +0 and a wire run would no longer be bit-identical to a loopback run. A
// block without a zero skips the compaction: zeroFreeLen answers for it
// first. A lossless vector without a support whose first block has no zero
// is taken for dense and tested while its dense block is written
// (appendDenseFirst), so a dense vector is read once, not once to decide and
// again to write.
//
// The encoder has three index sources and one emitter. Without a support it
// compacts the vector's own coordinates, block by block. A commit broadcast
// carries the fold's support instead (Server.broadcast arms it on the shared
// frame): the ascending coordinates the round's sparse folds touched, outside
// which every coordinate is +0. Then each block is a run of the support,
// filtered for non-zero bit patterns by compactSupport, so a commit costs
// what its union holds rather than a scan of the whole model. An explicit
// sparse vector (every sparse upload) is its own index list. The sources
// differ only in how the block is sized before its first value is written —
// the format puts every gap before every value: the support-less source
// compacts once to size it exactly, a support bounds it from its own
// entries without reading the vector, and an explicit vector counts its
// gaps. Then one pass writes each gap and value at its final offset in the
// frame buffer (emitBlock), so the frame is byte for byte the one a
// support-less encode makes and needs no buffer but itself.
//
// Params blocks are the codec's bulk. Every dense float32 run — a dense
// block, the values of a lossless sparse block, their decode — goes through
// internal/tensor's little-endian run kernels (PutFloat32sLE, whose write
// also tests for a zero bit pattern, and GetFloat32sLE), which the snapshot
// store shares. On amd64 they move 32 bytes a vector in AVX2; the Go loop,
// four coordinates a 16-byte window, is the format's definition and what
// every other build runs. An Update's lossless dense block is not decoded
// at all: the decoded message carries the run where it lies in the payload
// (its wire form), and the server's fold reads it there (AxpyFloat32sLE, the
// fold's axpy over a run), so the values cross memory once. The codec itself
// holds no assembly and no unsafe: nothing reinterprets a []byte as a
// []float32, which would tie the wire format to the host's byte order, and
// the kernels' vector form runs only on little-endian amd64. A sparse
// block's values scatter four a step (scatter) for the same reason the Go
// loop does: one 16-byte window whose bounds the compiler proves once. Index gaps move eight at a time: eight gaps below
// 0x80 are eight whole varints, one 8-byte store in the encoder (putGaps)
// and one 8-byte load in the decoder (cursor.indices), which range-checks
// only the eighth index of the word, since the indices ascend; any other
// word goes one varint at a time, with every check.
const (
	// maxFrame bounds a frame payload (256 MB ≈ a 64M-parameter model);
	// anything larger is a corrupt or hostile stream. WireOptions.MaxFrame
	// lowers the bound per link, so a deployment whose model is kilobytes
	// need not let a hostile length prefix buffer megabytes.
	maxFrame = 1 << 28
	// maxParams bounds the *logical* length a params block may claim, so a
	// tiny hostile sparse frame cannot make the receiver densify gigabytes.
	maxParams = maxFrame / 4

	// maxSeatID bounds a wire-claimed seat ID (hello, Leave) and task
	// position (Catchup) at decode time: anything beyond it is a malformed
	// frame, rejected before the receiver validates — or allocates —
	// anything downstream, and int stays positive on every platform.
	maxSeatID = 1<<31 - 1

	flagParticipate = 1 << 0
	flagTaskDone    = 1 << 1
	flagDead        = 1 << 0
	flagTaskFinal   = 1 << 0
	flagRejoin      = 1 << 0
	flagJoin        = 1 << 1

	fmtValueMask = 0x03
	fmtSparse    = 0x04
)

// Compression is the codec half of a link's negotiated settings: the value
// encoding (lossless float32 by default) and whether the encoder may choose
// the sparse block form when it is smaller (it always may, unless disabled
// for benchmarking dense baselines — decoding accepts every form
// regardless).
type Compression struct {
	Quant         Quant
	DisableSparse bool
}

// formatByte returns the params-block format for this compression with the
// given block form.
func (c Compression) formatByte(sparse bool) byte {
	b := byte(c.Quant) & fmtValueMask
	if sparse {
		b |= fmtSparse
	}
	return b
}

// helloMsg is the transport-level identification frame a wire client sends
// after dialing: its claimed client ID, the job fingerprint the server
// checks for configuration agreement, and the value encoding it will use —
// quantization changes results, so a server rejects clients that disagree
// instead of silently mixing precisions. A rejoining client sets the rejoin
// flag and its last-seen global version, and expects a Catchup reply
// instead of the fresh-cohort admission. A joining client (v5) sets the
// join flag with clientID 0 — it has no seat yet — and expects a
// seat-assignment hello (the same frame, server → client, no role flags,
// clientID carrying the assigned seat) followed by a Catchup. The decoder
// rejects a hello claiming both roles, or a join claiming a seat, as
// malformed. It never crosses the
// Transport interface.
type helloMsg struct {
	clientID    int
	fingerprint uint64
	quant       Quant
	rejoin      bool
	join        bool
	lastVersion uint64
}

func (*helloMsg) Kind() Kind { return KindHello }

// Codec is a reusable encoder/decoder for one frame stream. Encode builds
// each frame — header and payload — in one internal scratch buffer and Decode
// reads into internal reusable buffers, so steady-state rounds allocate
// nothing; messages decoded by the same Codec alias its buffers and stay
// valid only until the next Decode — the lockstep protocol consumes every
// message before the link's next receive. Use separate Codecs (or the
// package-level Encode and Decode) for retained messages.
type Codec struct {
	comp Compression
	// maxFrame, when positive, lowers the frame-payload bound below the
	// package default: the allocation a hostile length prefix can force on the
	// decoder before validation fails (the params-length bound scales with
	// it), and the largest payload the encoder will emit.
	maxFrame int
	enc      []byte // the last frame Encode built itself
	dec      decodeScratch
}

// NewCodec returns a codec that encodes with the given compression. Decoding
// is format-driven and accepts every encoding regardless of comp.
func NewCodec(comp Compression) *Codec {
	return &Codec{comp: comp}
}

// frameHeader is the size of a frame's kind byte and length prefix.
const frameHeader = 5

// Encode writes one frame to w in a single Write. A payload over the frame
// bound is an error and nothing is written: the peer would refuse the frame
// by its length prefix anyway, and at 4 GiB the prefix itself would wrap.
func (c *Codec) Encode(w io.Writer, m Msg) error {
	frame, err := c.frame(m)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// frame returns m's wire frame, valid until the next call. A GlobalModel
// under broadcast carries the server's shared frame: the first codec to meet
// it encodes into it, every later codec of the same Compression returns those
// bytes untouched, and a codec of a different Compression builds the frame in
// its own buffer — as it does for every message that carries no shared frame.
func (c *Codec) frame(m Msg) ([]byte, error) {
	var frame []byte
	if gm, ok := m.(*GlobalModel); ok && gm.frame != nil && (!gm.frame.filled || gm.frame.comp == c.comp) {
		f := gm.frame
		if !f.filled {
			f.buf, f.comp, f.filled = buildFrame(f.buf, m, c.comp), c.comp, true
		}
		frame = f.buf
	} else {
		c.enc = buildFrame(c.enc, m, c.comp)
		frame = c.enc
	}
	if n, limit := len(frame)-frameHeader, c.frameLimit(); n > limit {
		return nil, fmt.Errorf("fed: frame payload of %d bytes exceeds limit %d", n, limit)
	}
	return frame, nil
}

// buildFrame overwrites buf with m's frame: kind, payload length, payload.
func buildFrame(buf []byte, m Msg, comp Compression) []byte {
	buf = append(buf[:0], byte(m.Kind()), 0, 0, 0, 0)
	buf = appendPayload(buf, m, comp)
	// A payload beyond uint32 is over every frame bound: frame refuses it
	// before anything reads the wrapped prefix.
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(buf)-frameHeader))
	return buf
}

// frameLimit is the effective frame-payload bound of this codec.
func (c *Codec) frameLimit() int {
	if c.maxFrame <= 0 || c.maxFrame > maxFrame {
		return maxFrame
	}
	return c.maxFrame
}

// Decode reads one frame from r. io.EOF at a frame boundary means the peer
// closed cleanly; a truncated frame surfaces as io.ErrUnexpectedEOF.
func (c *Codec) Decode(r io.Reader) (Msg, error) {
	m, _, err := c.decodeFrame(r)
	return m, err
}

// decodeFrame is Decode also reporting the frame's size in bytes (header
// plus payload), for transports that account bytes on the wire.
func (c *Codec) decodeFrame(r io.Reader) (Msg, int, error) {
	s := &c.dec
	hdr := &s.hdr
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, 0, err
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	limit := c.frameLimit()
	if n > uint32(limit) {
		return nil, 0, fmt.Errorf("fed: frame length %d exceeds limit %d", n, limit)
	}
	s.limit = limit
	payload := grow(&s.payload, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	m, err := decodePayload(Kind(hdr[0]), payload, s)
	return m, frameHeader + int(n), err
}

// uvarintLen is the encoded size of v in bytes: one per started group of
// seven significant bits, computed without the loop (and its data-dependent
// branch) the encoding itself runs.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func appendPayload(buf []byte, m Msg, comp Compression) []byte {
	switch v := m.(type) {
	case *helloMsg:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.clientID))
		buf = binary.LittleEndian.AppendUint64(buf, v.fingerprint)
		buf = append(buf, byte(v.quant))
		var flags byte
		if v.rejoin {
			flags |= flagRejoin
		}
		if v.join {
			flags |= flagJoin
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, v.lastVersion)
	case *RoundStart:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.TaskIdx))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Round))
		var flags byte
		if v.Participate {
			flags |= flagParticipate
		}
		if v.TaskDone {
			flags |= flagTaskDone
		}
		buf = append(buf, flags)
	case *Update:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.ClientID))
		var flags byte
		if v.Participating {
			flags |= flagParticipate
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Weight))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.ComputeSeconds))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.UpBytes))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.DownBytes))
		buf = binary.AppendUvarint(buf, v.BaseVersion)
		dense := v.Params
		if v.paramsLE != nil {
			// An upload re-sent as it was received; nothing on the
			// server's path does this, so its decode may allocate.
			dense = v.DenseInto(nil)
		}
		buf = appendParams(buf, dense, v.Sparse, comp)
	case *GlobalModel:
		buf = binary.AppendUvarint(buf, v.Version)
		var flags byte
		if v.TaskFinal {
			flags |= flagTaskFinal
		}
		buf = append(buf, flags)
		var support []int32
		if v.frame != nil {
			support = v.frame.support
		}
		buf = appendDenseParams(buf, v.Params, support, comp)
	case *RoundEnd:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.ClientID))
		var flags byte
		if v.Dead {
			flags |= flagDead
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(v.EvalAccs)))
		for _, a := range v.EvalAccs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
		}
	case *Catchup:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.TaskIdx))
		buf = binary.AppendUvarint(buf, uint64(v.Seen))
		buf = binary.AppendUvarint(buf, v.Version)
		var flags byte
		if v.TaskFinal {
			flags |= flagTaskFinal
		}
		if v.TaskDone {
			flags |= flagTaskDone
		}
		buf = append(buf, flags)
		buf = appendDenseParams(buf, v.Params, nil, comp)
	case *Leave:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v.ClientID))
	default:
		panic(fmt.Sprintf("fed: cannot encode message type %T", m))
	}
	return buf
}

// appendParams emits one params block. A non-nil sp takes precedence and is
// emitted in sparse form directly; a dense vector goes to appendDenseParams.
func appendParams(buf []byte, dense []float32, sp *tensor.SparseVec, comp Compression) []byte {
	if sp != nil {
		return appendSparseVec(buf, sp, comp)
	}
	return appendDenseParams(buf, dense, nil, comp)
}

// appendDenseParams emits a dense vector as a params block in whichever form
// is smaller by exact encoded size (appendSparseFromDense decides). support,
// when non-nil, lists in ascending order every coordinate of dense that may
// hold a non-zero bit pattern; it changes what the encode costs, not what it
// writes.
func appendDenseParams(buf []byte, dense []float32, support []int32, comp Compression) []byte {
	n := len(dense)
	if !comp.DisableSparse && n > 0 {
		from := 0 // dense[:from] is known to hold no zero bit pattern
		if support == nil && comp.Quant == QuantNone {
			head := dense[:min(n, compactBlock)]
			if from = zeroFreeLen(head); from == len(head) {
				return appendDenseFirst(buf, dense, comp)
			}
		}
		if out, ok := appendSparseFromDense(buf, dense, support, from, comp); ok {
			return out
		}
	}
	buf = append(buf, comp.formatByte(false))
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == 0 {
		return buf // the decoder reads nothing (not even a scale) at n = 0
	}
	var scale float32
	if comp.Quant == QuantI8 {
		scale = i8Scale(dense)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
	}
	// The block is sized once, so none of the stores below reallocates.
	buf = slices.Grow(buf, n*comp.Quant.valueBytes())
	switch comp.Quant {
	case QuantF16:
		for _, v := range dense {
			buf = binary.LittleEndian.AppendUint16(buf, f32ToF16(v))
		}
	case QuantI8:
		for _, v := range dense {
			buf = append(buf, byte(i8Quantize(v, scale)))
		}
	default:
		off := len(buf)
		buf = buf[:off+4*n]
		tensor.PutFloat32sLE(buf[off:], dense)
	}
	return buf
}

// appendDenseFirst emits a lossless float32 vector without a support, whose
// first compaction block holds no zero, in whichever form is smaller, taking
// it for dense: the dense window is sized and written, and the same pass
// tests every coordinate it writes (tensor.PutFloat32sLE). A vector with no
// zero is done after that one read — its sparse block, a gap byte and a
// value a coordinate, is never the smaller. At the first zero after a
// zero-free prefix of m coordinates the sparse size resumes from the prefix
// (k = m, one gap byte each) instead of from coordinate 0; if dense still
// wins, the window already holds it, and otherwise the window is dropped and
// the sparse block written in its place. Only a vector whose first block
// holds no zero sizes the window, so a sparse one whose first block holds a
// zero never grows the frame buffer past what its sparse block needs.
func appendDenseFirst(buf []byte, dense []float32, comp Compression) []byte {
	n, start := len(dense), len(buf)
	buf = append(buf, comp.formatByte(false))
	buf = binary.AppendUvarint(buf, uint64(n))
	off := len(buf)
	buf = slices.Grow(buf, 4*n)[:off+4*n]
	m := tensor.PutFloat32sLE(buf[off:], dense)
	if m == n {
		return buf
	}
	k, gapBytes, ok := sparseSize(dense, nil, 4, m)
	if !ok {
		return buf
	}
	return appendCompacted(buf[:start], dense, nil, k, gapBytes, comp)
}

// compactBlock is how many coordinates one compaction step covers: the
// encoder's only scratch is one stack block of that many indices and values
// (4 KiB), so encoding costs no memory that grows with the model.
const compactBlock = 512

// compacted is one compaction step's output: the ascending indices of the
// non-zero coordinates it found and, beside each, the coordinate's value.
type compacted struct {
	idx [compactBlock]int32
	val [compactBlock]float32
}

// compactNonZero stores base+i and src[i] for every i whose src[i] has a
// non-zero *bit pattern* at the front of c, in ascending order, and returns
// how many it stored; len(src) must not exceed compactBlock. It is
// branch-free: the pair is stored unconditionally and the cursor advances by
// the sign bit of u | -u, which is set exactly when u != 0. The test is on the
// bits, not the value, so negative zero and NaN stay "non-zero" and cross the
// wire — that is what keeps the float32 encodings bit-exact. A branch on
// v != 0 here mispredicts about a third of the time on a 19 %-dense union.
// Kept out of line: inlined into the encoder, the loop's live counters are
// spilled to the stack on every element.
//
//go:noinline
func compactNonZero(c *compacted, src []float32, base int32) int {
	k := 0
	for i, v := range src {
		u := math.Float32bits(v)
		m := k & (compactBlock - 1) // k ≤ i < compactBlock: the mask only drops the bounds checks
		c.idx[m], c.val[m] = base+int32(i), v
		k += int((u | -u) >> 31)
	}
	return k
}

// compactSupport is compactNonZero over the coordinates a support lists:
// it stores every j of support whose dense[j] has a non-zero bit pattern, and
// that value, at the front of c, in order, and returns how many it stored;
// len(support) must not exceed compactBlock. Branch-free for the same reason,
// and kept out of line for the same reason. Storing the value spares the
// emitter a second load of dense[j], a gather across the model.
//
//go:noinline
func compactSupport(c *compacted, dense []float32, support []int32) int {
	k := 0
	for _, j := range support {
		v := dense[j]
		u := math.Float32bits(v)
		m := k & (compactBlock - 1)
		c.idx[m], c.val[m] = j, v
		k += int((u | -u) >> 31)
	}
	return k
}

// zeroFreeLen returns len(src) when no coordinate of src has an all-zero bit
// pattern, and otherwise a prefix length m with no zero in src[:m] and one in
// src[m:m+8]: the start of the eight-coordinate step, or the tail coordinate,
// holding the first zero. Eight coordinates are tested a step by ANDing their
// u | -u, whose sign bit is set exactly when u != 0, and the scan stops at the
// first step that holds a zero: a sparse block answers at its first eight
// coordinates, a zero-free one is read once with no data-dependent branch
// inside a step.
func zeroFreeLen(src []float32) int {
	n := len(src)
	for len(src) >= 8 {
		s := src[:8]
		u0, u1, u2, u3 := math.Float32bits(s[0]), math.Float32bits(s[1]), math.Float32bits(s[2]), math.Float32bits(s[3])
		u4, u5, u6, u7 := math.Float32bits(s[4]), math.Float32bits(s[5]), math.Float32bits(s[6]), math.Float32bits(s[7])
		all := (u0 | -u0) & (u1 | -u1) & (u2 | -u2) & (u3 | -u3) & (u4 | -u4) & (u5 | -u5) & (u6 | -u6) & (u7 | -u7)
		if all>>31 == 0 {
			return n - len(src)
		}
		src = src[8:]
	}
	for i, v := range src {
		if math.Float32bits(v) == 0 {
			return n - len(src) + i
		}
	}
	return n
}

// appendSparseFromDense emits dense as a sparse params block — the non-zero
// (by bit pattern) coordinates only — when that is smaller than the dense
// block by exact encoded size, and reports false with buf untouched when it
// is not. The index source is dense's own coordinates, or with a non-nil
// support the entries of support (see the package note on the index
// sources); neither is ever materialised as an index list.
//
// The format puts all gaps before all values, so the block must be sized
// before its first value is written; that sizing is all that differs between
// the sources, and one compaction pass then writes the block
// (appendCompacted). A support bounds the block without reading dense at
// all: the compacted indices are the support less its zero coordinates, and
// dropping an entry merges two gaps into one, which never lengthens their
// varints (len(a+b+1) ≤ len(a) + len(b)), so the support's own gap bytes and
// length bound the block's. When that bound does not beat the dense size —
// and always without a support — sparseSize compacts the source once to size
// the block exactly. Which way it was sized never changes the bytes.
func appendSparseFromDense(buf []byte, dense []float32, support []int32, from int, comp Compression) ([]byte, bool) {
	n, vb := len(dense), comp.Quant.valueBytes()
	if support != nil {
		// The optional int8 scale costs the same in both forms and cancels.
		if k, gapBytes := len(support), gapBytesOf(support); uvarintLen(uint64(k))+gapBytes+k*vb < n*vb {
			return appendCompacted(buf, dense, support, k, gapBytes, comp), true
		}
	}
	k, gapBytes, ok := sparseSize(dense, support, vb, from)
	if !ok {
		return buf, false
	}
	return appendCompacted(buf, dense, support, k, gapBytes, comp), true
}

// sparseSize compacts the index source block by block into the stack scratch
// and returns the exact k and gap bytes of dense's sparse block, with ok
// false when that block is not smaller than the dense one. Without a support
// it starts at coordinate from, every coordinate before which is known to
// hold a non-zero bit pattern: from entries, a one-byte gap each. The sparse
// cost only grows along the vector, so it gives up at the first block
// boundary where it provably cannot beat the dense size: a fully dense vector
// stops ~4/5 of the way through instead of paying the whole scan. Where the
// bail happens never changes the decision.
func sparseSize(dense []float32, support []int32, vb, from int) (k, gapBytes int, ok bool) {
	var c compacted
	n, src := len(dense), len(dense)
	if support != nil {
		src = len(support)
	}
	k, gapBytes = from, from
	prev := int32(from - 1)
	for lo := from; lo < src; lo += compactBlock {
		if gapBytes+k*vb+1 >= n*vb {
			return 0, 0, false
		}
		hi := min(lo+compactBlock, src)
		cnt := hi - lo
		if support == nil && zeroFreeLen(dense[lo:hi]) == cnt {
			// A block without a zero: every gap after its first is 0, one
			// byte each. A dense vector pays the test and nothing else on its
			// way to the bail above.
			gapBytes += uvarintLen(uint64(int32(lo)-prev-1)) + cnt - 1
			prev = int32(hi - 1)
		} else {
			cnt = compactFrom(&c, dense, support, lo, hi)
			for _, j := range c.idx[:cnt] {
				gapBytes += uvarintLen(uint64(j - prev - 1))
				prev = j
			}
		}
		k += cnt
	}
	return k, gapBytes, uvarintLen(uint64(k))+gapBytes+k*vb < n*vb
}

// appendCompacted writes dense's sparse block in one compaction pass over
// the index source, into a window sized for k entries whose gaps take
// gapBytes bytes: each compaction block's gaps and values go straight to
// their final offsets. The sizes are exact, or a support's bound; only when
// an exact cancellation dropped a support entry does the value run move down
// to meet the gaps (one copy), k's varint get rewritten — and should it have
// shrunk, the body move down to meet it.
func appendCompacted(buf []byte, dense []float32, support []int32, k, gapBytes int, comp Compression) []byte {
	vb := comp.Quant.valueBytes()
	kAt := len(buf) + 1 + uvarintLen(uint64(len(dense))) // after the format byte and n
	buf, scale := appendSparseHeader(buf, len(dense), k, dense, comp)
	off := len(buf)
	buf = slices.Grow(buf, gapBytes+k*vb)[:off+gapBytes+k*vb]
	gaps, vals := buf[off:off+gapBytes], buf[off+gapBytes:]
	var c compacted
	src := len(dense)
	if support != nil {
		src = len(support)
	}
	prev := int32(-1)
	for lo := 0; lo < src; lo += compactBlock {
		cnt := compactFrom(&c, dense, support, lo, min(lo+compactBlock, src))
		prev = emitBlock(&gaps, &vals, c.idx[:cnt], c.val[:cnt], prev, comp.Quant, scale)
	}
	if len(vals) == 0 {
		return buf // every entry the window was sized for was written
	}
	stored, gapsEnd := k-len(vals)/vb, off+gapBytes-len(gaps)
	end := gapsEnd + copy(buf[gapsEnd:], buf[off+gapBytes:len(buf)-len(vals)])
	if shrink := uvarintLen(uint64(k)) - uvarintLen(uint64(stored)); shrink > 0 {
		body := kAt + uvarintLen(uint64(k))
		end = body - shrink + copy(buf[body-shrink:], buf[body:end])
	}
	binary.AppendUvarint(buf[:kAt], uint64(stored))
	return buf[:end]
}

// gapBytesOf returns the bytes the gaps of the ascending indices idx take as
// uvarints. Eight gaps that are all one byte — their OR is below 0x80 — are
// counted at once.
func gapBytesOf(idx []int32) (gapBytes int) {
	prev, x := int32(-1), idx
	for ; len(x) >= 8; x = x[8:] {
		s := x[:8]
		if uint32((s[0]-prev-1)|(s[1]-s[0]-1)|(s[2]-s[1]-1)|(s[3]-s[2]-1)|
			(s[4]-s[3]-1)|(s[5]-s[4]-1)|(s[6]-s[5]-1)|(s[7]-s[6]-1)) < 0x80 {
			gapBytes += 8
		} else {
			for _, j := range s {
				gapBytes += uvarintLen(uint64(j - prev - 1))
				prev = j
			}
		}
		prev = s[7]
	}
	for _, j := range x {
		gapBytes += uvarintLen(uint64(j - prev - 1))
		prev = j
	}
	return gapBytes
}

// appendSparseHeader appends a sparse block's format byte, n, k and — for
// int8 — the scale of vals, and returns the scale.
func appendSparseHeader(buf []byte, n, k int, vals []float32, comp Compression) ([]byte, float32) {
	buf = append(buf, comp.formatByte(true))
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(k))
	var scale float32
	if comp.Quant == QuantI8 {
		scale = i8Scale(vals)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
	}
	return buf, scale
}

// compactFrom compacts block [lo, hi) of the index source into c: dense's
// coordinates lo…hi−1, or with a support its entries support[lo:hi].
func compactFrom(c *compacted, dense []float32, support []int32, lo, hi int) int {
	if support == nil {
		return compactNonZero(c, dense[lo:hi], int32(lo))
	}
	return compactSupport(c, dense, support[lo:hi])
}

// emitBlock is the sparse emitter every source shares: it writes the gaps of
// idx (ascending, the first taken after prev) at the front of *gaps and the
// values vals, one per index, at the front of *vals, moves both windows past
// what it wrote, and returns the last index written.
func emitBlock(gaps, vals *[]byte, idx []int32, v []float32, prev int32, q Quant, scale float32) int32 {
	if len(idx) == 0 {
		return prev
	}
	*gaps = (*gaps)[putGaps(*gaps, idx, prev):]
	*vals = (*vals)[putValues(*vals, v, q, scale):]
	return idx[len(idx)-1]
}

// putGaps writes the uvarint gaps of the ascending indices idx, the first
// taken after prev, at the front of dst, which must hold them, and returns
// the bytes written. Eight gaps that are all one byte — nearly every eight of
// a sparse model — are one 8-byte store, with no append's capacity check;
// any other eight go one varint at a time.
func putGaps(dst []byte, idx []int32, prev int32) int {
	o := 0
	for ; len(idx) >= 8; idx = idx[8:] {
		s := idx[:8]
		g := s[0] - prev - 1
		or, w := g, uint64(uint32(g))
		g = s[1] - s[0] - 1
		or, w = or|g, w|uint64(uint32(g))<<8
		g = s[2] - s[1] - 1
		or, w = or|g, w|uint64(uint32(g))<<16
		g = s[3] - s[2] - 1
		or, w = or|g, w|uint64(uint32(g))<<24
		g = s[4] - s[3] - 1
		or, w = or|g, w|uint64(uint32(g))<<32
		g = s[5] - s[4] - 1
		or, w = or|g, w|uint64(uint32(g))<<40
		g = s[6] - s[5] - 1
		or, w = or|g, w|uint64(uint32(g))<<48
		g = s[7] - s[6] - 1
		or, w = or|g, w|uint64(uint32(g))<<56
		if uint32(or) < 0x80 {
			binary.LittleEndian.PutUint64(dst[o:], w)
			o += 8
		} else {
			for _, j := range s {
				o += binary.PutUvarint(dst[o:], uint64(j-prev-1))
				prev = j
			}
		}
		prev = s[7]
	}
	for _, j := range idx {
		o += binary.PutUvarint(dst[o:], uint64(j-prev-1))
		prev = j
	}
	return o
}

// putValues encodes vals at the front of dst, which must hold them, and
// returns the bytes written.
func putValues(dst []byte, vals []float32, q Quant, scale float32) int {
	switch q {
	case QuantF16:
		dst = dst[:2*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint16(dst[2*i:], f32ToF16(v))
		}
	case QuantI8:
		dst = dst[:len(vals)]
		for i, v := range vals {
			dst[i] = byte(i8Quantize(v, scale))
		}
	default:
		tensor.PutFloat32sLE(dst, vals)
	}
	return len(vals) * q.valueBytes()
}

// appendSparseVec emits an explicit sparse vector (indices strictly
// ascending) as a sparse params block: one sizing pass over the indices, then
// every gap and value written in place.
func appendSparseVec(buf []byte, sp *tensor.SparseVec, comp Compression) []byte {
	k, gapBytes := len(sp.Indices), gapBytesOf(sp.Indices)
	buf, scale := appendSparseHeader(buf, sp.N, k, sp.Values, comp)
	off, vb := len(buf), comp.Quant.valueBytes()
	buf = slices.Grow(buf, gapBytes+k*vb)[:off+gapBytes+k*vb]
	gaps, vals := buf[off:off+gapBytes], buf[off+gapBytes:]
	emitBlock(&gaps, &vals, sp.Indices, sp.Values, -1, comp.Quant, scale)
	return buf
}

// decodeScratch holds the reusable buffers and message structs of one
// decoding stream. Messages decoded with the same scratch alias its buffers
// — an Update in wire form the payload itself: each stays valid only until
// the next message reusing the same buffer is decoded — which matches the
// lockstep protocol, where every message is consumed before the link's next
// Recv. Use a fresh scratch for retained messages.
type decodeScratch struct {
	hdr     [5]byte
	limit   int // effective frame bound of the current decode (0 = default)
	payload []byte
	f32     []float32
	f64     []float64
	spIdx   []int32
	spVal   []float32

	// pooled message structs, rewritten by each decode of their kind
	hello helloMsg
	rs    RoundStart
	upd   Update
	gm    GlobalModel
	re    RoundEnd
	cu    Catchup
	lv    Leave
	sp    tensor.SparseVec
}

// grow returns a length-n slice backed by *buf, reallocating only when the
// capacity is exceeded (parameter payloads are multi-MB and arrive every
// round).
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// cursor walks a payload with bounds checking.
type cursor struct {
	buf     []byte
	off     int
	err     error
	scratch *decodeScratch
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.buf) {
		c.err = fmt.Errorf("fed: truncated payload (want %d bytes at offset %d of %d)", n, c.off, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// paramLimit is the logical params-length bound for this decode: a quarter of
// the link's effective frame limit (every stored value costs ≥ 4 bytes dense),
// so lowering the frame cap also bounds what a tiny sparse frame may densify
// into.
func (c *cursor) paramLimit() uint64 {
	if c.scratch != nil && c.scratch.limit > 0 {
		return uint64(c.scratch.limit) / 4
	}
	return maxParams
}

func (c *cursor) u8() byte {
	b := c.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) f32() float32 { return math.Float32frombits(c.u32()) }

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.err = fmt.Errorf("fed: bad varint at offset %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// params decodes one params block in one of two forms. With install — the
// form a client installs — every block becomes a full float32 vector in the
// scratch buffers, a sparse block's absent coordinates zero. Without it —
// the form the server folds — a sparse block becomes a SparseVec, and a
// lossless dense block is not decoded at all: run is its little-endian
// float32 run, aliasing the payload. Lossy value encodings are dequantised
// here either way, so no caller sees them.
func (c *cursor) params(install bool) (dense []float32, run []byte, sp *tensor.SparseVec) {
	format := c.u8()
	n := c.uvarint()
	if c.err != nil {
		return nil, nil, nil
	}
	if format&^(fmtValueMask|fmtSparse) != 0 || Quant(format&fmtValueMask) > QuantI8 {
		c.err = fmt.Errorf("fed: unknown params format %#x", format)
		return nil, nil, nil
	}
	if n > c.paramLimit() {
		c.err = fmt.Errorf("fed: params length %d exceeds limit %d", n, c.paramLimit())
		return nil, nil, nil
	}
	q := Quant(format & fmtValueMask)
	if n == 0 {
		if format&fmtSparse != 0 {
			if k := c.uvarint(); c.err == nil && k != 0 {
				c.err = fmt.Errorf("fed: sparse params store %d of 0 coordinates", k)
			}
			if q == QuantI8 {
				c.f32()
			}
		}
		return nil, nil, nil
	}
	// Each count is held to the exact minimum size of what it claims before
	// anything is sized by it, so a hostile count cannot make the decoder
	// allocate more than the payload it sent: a dense block is its values
	// (after the int8 scale), a sparse one at least one gap byte and one
	// value per stored coordinate.
	vb, scaleBytes := uint64(q.valueBytes()), uint64(0)
	if q == QuantI8 {
		scaleBytes = 4
	}
	if format&fmtSparse == 0 {
		if uint64(len(c.buf)-c.off) < scaleBytes+n*vb {
			c.err = fmt.Errorf("fed: params count %d exceeds payload", n)
			return nil, nil, nil
		}
		if q == QuantNone && !install {
			return nil, c.take(4 * int(n)), nil
		}
		out := grow(&c.scratch.f32, int(n))
		c.values(out, q)
		return out, nil, nil
	}
	k := c.uvarint()
	if c.err != nil {
		return nil, nil, nil
	}
	if k > n {
		c.err = fmt.Errorf("fed: sparse params store %d of %d coordinates", k, n)
		return nil, nil, nil
	}
	if uint64(len(c.buf)-c.off) < scaleBytes+k*(1+vb) {
		c.err = fmt.Errorf("fed: sparse params count %d exceeds payload", k)
		return nil, nil, nil
	}
	idx := grow(&c.scratch.spIdx, int(k))
	var scale float32
	if q == QuantI8 {
		scale = c.f32()
	}
	c.indices(idx, n)
	if c.err != nil {
		return nil, nil, nil
	}
	if install {
		// The values follow the gaps, so they go straight from the payload
		// to their coordinates: nothing is staged in spVal.
		b := c.take(len(idx) * int(vb))
		if b == nil {
			return nil, nil, nil
		}
		out := grow(&c.scratch.f32, int(n))
		clear(out)
		scatter(out, idx, b, q, scale)
		return out, nil, nil
	}
	sp = &c.scratch.sp
	*sp = tensor.SparseVec{N: int(n), Indices: idx, Values: grow(&c.scratch.spVal, int(k))}
	c.quantValues(sp.Values, q, scale)
	return nil, nil, sp
}

// indices decodes len(idx) index gaps into strictly ascending indices below
// n. Eight gap bytes with no continuation bit between them are eight whole
// canonical varints: they are read as one word, and since the indices ascend,
// the eighth index bounds all eight, so one range check covers the word. Any
// other word — a continuation bit, fewer than eight gaps or bytes left, or an
// index ≥ n — goes one gap at a time: a byte below 0x80 read straight, any
// other through uvarint and the gap bound. The one-byte reads skip that
// bound, which a one-byte gap can only break under a frame limit lowered
// below 4·127 bytes — and then the index it lands on is still refused, by the
// range check: n ≤ paramLimit < gap ≤ index.
func (c *cursor) indices(idx []int32, n uint64) {
	buf, off, prev := c.buf, c.off, int64(-1)
	for i := 0; i < len(idx); {
		if i+8 <= len(idx) && off+8 <= len(buf) {
			if w := binary.LittleEndian.Uint64(buf[off:]); w&0x8080808080808080 == 0 {
				j0 := prev + 1 + int64(byte(w))
				j1 := j0 + 1 + int64(byte(w>>8))
				j2 := j1 + 1 + int64(byte(w>>16))
				j3 := j2 + 1 + int64(byte(w>>24))
				j4 := j3 + 1 + int64(byte(w>>32))
				j5 := j4 + 1 + int64(byte(w>>40))
				j6 := j5 + 1 + int64(byte(w>>48))
				j7 := j6 + 1 + int64(w>>56)
				if j7 < int64(n) {
					d := idx[i : i+8 : i+8]
					d[0], d[1], d[2], d[3] = int32(j0), int32(j1), int32(j2), int32(j3)
					d[4], d[5], d[6], d[7] = int32(j4), int32(j5), int32(j6), int32(j7)
					i, off, prev = i+8, off+8, j7
					continue
				}
			}
		}
		var gap uint64
		if off < len(buf) && buf[off] < 0x80 {
			gap = uint64(buf[off])
			off++
		} else {
			c.off = off
			if gap = c.uvarint(); c.err != nil {
				return
			}
			// Bound the gap before widening: a hostile 64-bit varint must not
			// wrap int64 into a duplicate, descending or negative index (which
			// would break the strictly-ascending invariant the parallel
			// scatter kernels rely on, or panic the aggregator).
			if gap > c.paramLimit() {
				c.err = fmt.Errorf("fed: sparse index gap %d exceeds limit", gap)
				return
			}
			off = c.off
		}
		j := prev + 1 + int64(gap)
		if j >= int64(n) {
			c.err = fmt.Errorf("fed: sparse index %d out of range [0,%d)", j, n)
			return
		}
		idx[i] = int32(j)
		prev = j
		i++
	}
	c.off = off
}

// values fills out with n dequantised values (reading the scale first for
// int8 dense blocks).
func (c *cursor) values(out []float32, q Quant) {
	var scale float32
	if q == QuantI8 {
		scale = c.f32()
	}
	c.quantValues(out, q, scale)
}

func (c *cursor) quantValues(out []float32, q Quant, scale float32) {
	switch q {
	case QuantF16:
		b := c.take(len(out) * 2)
		if b == nil {
			return
		}
		for i := range out {
			out[i] = f16ToF32(binary.LittleEndian.Uint16(b[2*i:]))
		}
	case QuantI8:
		b := c.take(len(out))
		if b == nil {
			return
		}
		for i := range out {
			out[i] = float32(int8(b[i])) * scale
		}
	default:
		if b := c.take(len(out) * 4); b != nil {
			tensor.GetFloat32sLE(out, b)
		}
	}
}

// scatter dequantises the len(idx) values encoded in src into dst at idx.
// The float32 case moves four values a step: one 16-byte window of src and
// four stores whose only checks are on the indices.
func scatter(dst []float32, idx []int32, src []byte, q Quant, scale float32) {
	switch q {
	case QuantF16:
		for i, j := range idx {
			dst[j] = f16ToF32(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case QuantI8:
		for i, j := range idx {
			dst[j] = float32(int8(src[i])) * scale
		}
	default:
		src = src[:4*len(idx)]
		for len(idx) >= 4 && len(src) >= 16 {
			x, s := idx[:4], src[:16]
			dst[x[0]] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
			dst[x[1]] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
			dst[x[2]] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
			dst[x[3]] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
			idx, src = idx[4:], src[16:]
		}
		for i, j := range idx {
			dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	}
}

func (c *cursor) f64s() []float64 {
	n := c.u64()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.buf)-c.off)/8 {
		c.err = fmt.Errorf("fed: float64 count %d exceeds payload", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := grow(&c.scratch.f64, int(n))
	for i := range out {
		out[i] = c.f64()
	}
	return out
}

func (c *cursor) finish(m Msg) (Msg, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.buf) {
		return nil, fmt.Errorf("fed: %d trailing payload bytes", len(c.buf)-c.off)
	}
	return m, nil
}

func decodePayload(kind Kind, payload []byte, s *decodeScratch) (Msg, error) {
	c := &cursor{buf: payload, scratch: s}
	switch kind {
	case KindHello:
		m := &s.hello
		*m = helloMsg{clientID: int(c.u32()), fingerprint: c.u64(), quant: Quant(c.u8())}
		if c.err == nil && m.quant > QuantI8 {
			c.err = fmt.Errorf("fed: unknown quantisation mode %d in hello", m.quant)
		}
		if c.err == nil && uint64(m.clientID) > maxSeatID {
			c.err = fmt.Errorf("fed: malformed seat ID %d in hello", m.clientID)
		}
		flags := c.u8()
		m.rejoin = flags&flagRejoin != 0
		m.join = flags&flagJoin != 0
		if c.err == nil && m.join {
			// A join hello is seatless by definition: the server assigns the
			// ID. Claiming one — or both the join and rejoin roles at once —
			// is a malformed frame, rejected before the acceptor sees it.
			if m.rejoin {
				c.err = fmt.Errorf("fed: hello claims both join and rejoin")
			} else if m.clientID != 0 {
				c.err = fmt.Errorf("fed: join hello claims seat %d, want 0 (the server assigns seats)", m.clientID)
			}
		}
		m.lastVersion = c.uvarint()
		return c.finish(m)
	case KindRoundStart:
		m := &s.rs
		*m = RoundStart{TaskIdx: int(c.u32()), Round: int(c.u32())}
		flags := c.u8()
		m.Participate = flags&flagParticipate != 0
		m.TaskDone = flags&flagTaskDone != 0
		return c.finish(m)
	case KindUpdate:
		m := &s.upd
		*m = Update{ClientID: int(c.u32())}
		m.Participating = c.u8()&flagParticipate != 0
		m.Weight = c.f64()
		m.ComputeSeconds = c.f64()
		m.UpBytes = int64(c.u64())
		m.DownBytes = int64(c.u64())
		m.BaseVersion = c.uvarint()
		m.Params, m.paramsLE, m.Sparse = c.params(false)
		return c.finish(m)
	case KindGlobalModel:
		m := &s.gm
		version := c.uvarint()
		taskFinal := c.u8()&flagTaskFinal != 0
		// Clients install the global model as a full vector (mask merge,
		// Model.SetWeights), so a sparse-encoded broadcast is densified as it is
		// decoded: absent coordinates are zero by definition of the block.
		dense, _, _ := c.params(true)
		*m = GlobalModel{Params: dense, Version: version, TaskFinal: taskFinal}
		return c.finish(m)
	case KindRoundEnd:
		m := &s.re
		*m = RoundEnd{ClientID: int(c.u32())}
		m.Dead = c.u8()&flagDead != 0
		m.EvalAccs = c.f64s()
		return c.finish(m)
	case KindCatchup:
		m := &s.cu
		taskIdx := int(c.u32())
		seen := c.uvarint()
		if c.err == nil && (uint64(taskIdx) > maxSeatID || seen > maxSeatID) {
			// Validated before the params block is decoded: a hostile task
			// position or resume round is refused before any allocation.
			c.err = fmt.Errorf("fed: catch-up position (task %d, seen %d) out of range", taskIdx, seen)
		}
		version := c.uvarint()
		flags := c.u8()
		// Like the global model, the catch-up payload is installed as a full
		// vector.
		dense, _, _ := c.params(true)
		*m = Catchup{TaskIdx: taskIdx, Seen: int(seen), Version: version,
			TaskFinal: flags&flagTaskFinal != 0, TaskDone: flags&flagTaskDone != 0,
			Params: dense}
		return c.finish(m)
	case KindLeave:
		m := &s.lv
		*m = Leave{ClientID: int(c.u32())}
		if c.err == nil && uint64(m.ClientID) > maxSeatID {
			c.err = fmt.Errorf("fed: malformed seat ID %d in leave", m.ClientID)
		}
		return c.finish(m)
	default:
		return nil, fmt.Errorf("fed: unknown message kind %d", kind)
	}
}
