package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prune"
	"repro/internal/tensor"
)

func TestParamsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	flat := make([]float32, 1234)
	rng.FillNorm(flat, 1)
	var buf bytes.Buffer
	if err := WriteParams(&buf, flat); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(flat) {
		t.Fatalf("length %d", len(got))
	}
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestParamsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteParams(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParams(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v %v", got, err)
	}
}

func TestParamsBadMagic(t *testing.T) {
	buf := bytes.NewBuffer([]byte{1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := ReadParams(buf); err == nil {
		t.Fatal("bad magic must error")
	}
}

func TestParamsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteParams(&buf, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewBuffer(buf.Bytes()[:buf.Len()-2])
	if _, err := ReadParams(trunc); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestKnowledgeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(2)
	w := make([]float32, 500)
	rng.FillNorm(w, 1)
	s := prune.Extract(w, 0.1)
	var buf bytes.Buffer
	if err := WriteKnowledge(&buf, 7, []int{3, 9, 12}, s); err != nil {
		t.Fatal(err)
	}
	taskID, classes, got, err := ReadKnowledge(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if taskID != 7 {
		t.Fatalf("taskID %d", taskID)
	}
	if len(classes) != 3 || classes[2] != 12 {
		t.Fatalf("classes %v", classes)
	}
	if got.N != s.N || got.Len() != s.Len() {
		t.Fatalf("store geometry %d/%d", got.N, got.Len())
	}
	for i := range s.Indices {
		if got.Indices[i] != s.Indices[i] || got.Values[i] != s.Values[i] {
			t.Fatalf("store mismatch at %d", i)
		}
	}
}

func TestKnowledgeBadHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteParams(&buf, []float32{1}); err != nil {
		t.Fatal(err)
	}
	// Params magic where knowledge expected.
	if _, _, _, err := ReadKnowledge(&buf); err == nil {
		t.Fatal("wrong record type must error")
	}

	// Hostile counts: a class count that turns negative as an int, and a
	// coordinate count an int cannot hold on a 32-bit platform. Each must be
	// refused by the header check, not panic in an allocation.
	for _, hdr := range [][4]uint64{
		{0, 1 << 63, 10, 1},
		{0, math.MaxUint64, 10, 1},
		{0, 1, 1 << 40, 1},
		{0, 1, 1 << 31, 0},
		{0, 1, math.MaxUint64, math.MaxUint64},
		{0, 1, 10, 11},
	} {
		buf.Reset()
		binary.Write(&buf, binary.LittleEndian, magicKnowledge)
		binary.Write(&buf, binary.LittleEndian, hdr)
		if _, _, _, err := ReadKnowledge(&buf); err == nil || !strings.Contains(err.Error(), "implausible knowledge header") {
			t.Errorf("header %v: err %v, want the header refused", hdr, err)
		}
	}
	buf.Reset()
	binary.Write(&buf, binary.LittleEndian, magicParams)
	binary.Write(&buf, binary.LittleEndian, uint64(1<<31))
	if _, err := ReadParams(&buf); err == nil || !strings.Contains(err.Error(), "implausible parameter count") {
		t.Errorf("params count 2³¹: err %v, want the count refused", err)
	}
}

func TestMultipleRecordsStream(t *testing.T) {
	// Several knowledge records back to back in one stream (the on-disk
	// layout of a client's full task history).
	rng := tensor.NewRNG(3)
	var buf bytes.Buffer
	for task := 0; task < 4; task++ {
		w := make([]float32, 100)
		rng.FillNorm(w, 1)
		if err := WriteKnowledge(&buf, task, []int{task}, prune.Extract(w, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	for task := 0; task < 4; task++ {
		id, classes, s, err := ReadKnowledge(&buf)
		if err != nil {
			t.Fatalf("record %d: %v", task, err)
		}
		if id != task || classes[0] != task || s.Len() != 20 {
			t.Fatalf("record %d corrupt: id=%d", task, id)
		}
	}
}

func TestQuickParamsRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		var buf bytes.Buffer
		if err := WriteParams(&buf, vals); err != nil {
			return false
		}
		got, err := ReadParams(&buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN compares false; compare bit patterns instead.
			if got[i] != vals[i] && !(vals[i] != vals[i] && got[i] != got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
