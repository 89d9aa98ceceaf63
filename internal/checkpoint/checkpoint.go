// Package checkpoint serialises model parameters and server seat-book
// snapshots so both edge clients and the federation server can persist state
// across restarts (the deployment concern behind the paper's on-device
// design: a process must survive a reboot without re-learning its task
// history). The format is a small self-describing little-endian binary layout
// built on encoding/binary; server snapshots add a CRC-32 trailer and an
// atomic sequence-numbered Store (see ServerSnapshot and Store in
// snapshot.go).
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
)

const (
	magicParams = uint32(0xFEDC0001)

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
