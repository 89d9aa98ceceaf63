// Package checkpoint serialises model parameters, FedKNOW knowledge stores,
// and server seat-book snapshots so both edge clients and the federation
// server can persist state across restarts (the deployment concern behind
// the paper's on-device design: a process must survive a reboot without
// re-learning its task history). The format is a small self-describing
// little-endian binary layout built on encoding/binary; server snapshots
// add a CRC-32 trailer and an atomic sequence-numbered Store (see
// ServerSnapshot and Store in snapshot.go).
//
// Decoders never trust a header's element count for allocation: slices grow
// chunk by chunk with the bytes actually read, so a truncated or corrupt
// file fails with a clean error after at most one chunk instead of
// attempting a multi-GB allocation.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/prune"
)

const (
	magicParams    = uint32(0xFEDC0001)
	magicKnowledge = uint32(0xFEDC0002)

	// maxCount bounds a header's parameter count: it must fit an int on
	// every platform, 32-bit ones included.
	maxCount = math.MaxInt32
)

// WriteParams serialises a flat parameter vector.
//
//lint:ignore fedlint/unused-exported kept for ROADMAP 10's client state directory, deleted if item 10 is dropped
func WriteParams(w io.Writer, flat []float32) error {
	if err := binary.Write(w, binary.LittleEndian, magicParams); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(flat))); err != nil {
		return err
	}
	return writeF32s(w, flat)
}

// ReadParams deserialises a flat parameter vector, validating the header.
//
//lint:ignore fedlint/unused-exported kept for ROADMAP 10's client state directory, deleted if item 10 is dropped
func ReadParams(r io.Reader) ([]float32, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != magicParams {
		return nil, fmt.Errorf("checkpoint: bad params magic %#x", magic)
	}
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxCount {
		return nil, fmt.Errorf("checkpoint: implausible parameter count %d", n)
	}
	return readF32s(r, int(n))
}

// WriteKnowledge serialises one task's knowledge record (task id, classes,
// sparse store).
//
//lint:ignore fedlint/unused-exported kept for ROADMAP 10's client state directory, deleted if item 10 is dropped
func WriteKnowledge(w io.Writer, taskID int, classes []int, s *prune.SparseStore) error {
	if err := binary.Write(w, binary.LittleEndian, magicKnowledge); err != nil {
		return err
	}
	hdr := []uint64{uint64(taskID), uint64(len(classes)), uint64(s.N), uint64(s.Len())}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, c := range classes {
		if err := binary.Write(w, binary.LittleEndian, int64(c)); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, s.Indices); err != nil {
		return err
	}
	return writeF32s(w, s.Values)
}

// ReadKnowledge deserialises a knowledge record written by WriteKnowledge.
//
//lint:ignore fedlint/unused-exported kept for ROADMAP 10's client state directory, deleted if item 10 is dropped
func ReadKnowledge(r io.Reader) (taskID int, classes []int, s *prune.SparseStore, err error) {
	var magic uint32
	if err = binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return 0, nil, nil, err
	}
	if magic != magicKnowledge {
		return 0, nil, nil, fmt.Errorf("checkpoint: bad knowledge magic %#x", magic)
	}
	var hdr [4]uint64
	for i := range hdr {
		if err = binary.Read(r, binary.LittleEndian, &hdr[i]); err != nil {
			return 0, nil, nil, err
		}
	}
	// The counts are bounded as read, before any becomes an int: a corrupt
	// count ≥ 2⁶³ would turn negative and pass a bound checked after.
	if hdr[1] > 1<<20 || hdr[2] > maxCount || hdr[3] > hdr[2] {
		return 0, nil, nil, fmt.Errorf("checkpoint: implausible knowledge header %v", hdr)
	}
	n, k := int(hdr[2]), int(hdr[3])
	classes = make([]int, hdr[1])
	for i := range classes {
		var c int64
		if err = binary.Read(r, binary.LittleEndian, &c); err != nil {
			return 0, nil, nil, err
		}
		classes[i] = int(c)
	}
	s = &prune.SparseStore{N: n}
	if s.Indices, err = readI32s(r, k); err != nil {
		return 0, nil, nil, err
	}
	if s.Values, err = readF32s(r, k); err != nil {
		return 0, nil, nil, err
	}
	return int(hdr[0]), classes, s, nil
}

func writeF32s(w io.Writer, vals []float32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

// readChunk is the per-read element budget of the chunked decoders (1 MiB
// of file bytes for 4-byte elements): the output slice grows with the data
// actually present, so an attacker-controlled (or torn-write-corrupted)
// count cannot drive a huge up-front allocation.
const readChunk = 1 << 18

func readF32s(r io.Reader, n int) ([]float32, error) {
	out := make([]float32, 0, min(n, readChunk))
	buf := make([]byte, 4*min(n, readChunk))
	for len(out) < n {
		c := min(n-len(out), readChunk)
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
		}
	}
	return out, nil
}

func readI32s(r io.Reader, n int) ([]int32, error) {
	out := make([]int32, 0, min(n, readChunk))
	buf := make([]byte, 4*min(n, readChunk))
	for len(out) < n {
		c := min(n-len(out), readChunk)
		b := buf[:4*c]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(b[4*i:])))
		}
	}
	return out, nil
}
