package checkpoint

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

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
	// A count an int cannot hold on a 32-bit platform is refused by the
	// header check, not met by an allocation.
	buf.Reset()
	binary.Write(buf, binary.LittleEndian, magicParams)
	binary.Write(buf, binary.LittleEndian, uint64(1<<31))
	if _, err := ReadParams(buf); err == nil || !strings.Contains(err.Error(), "implausible parameter count") {
		t.Errorf("params count 2³¹: err %v, want the count refused", err)
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
