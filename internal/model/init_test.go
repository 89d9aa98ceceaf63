package model

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// stateDigest is the FNV-64a hash of v's bits, little-endian.
func stateDigest(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range v {
		u := math.Float32bits(x)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestZooInitDigests pins every architecture's initial state, all weights and
// BatchNorm statistics, at two seeds: the weights are drawn in Params() order,
// which is every zoo network's construction order, so a changed draw order or
// init rule fails here.
func TestZooInitDigests(t *testing.T) {
	want := map[string][2]uint64{
		"DenseNet":      {0x2ef855a0aa44bafd, 0xbd4b4f40cdb8f773},
		"InceptionV3":   {0x30156a7994e6c8f1, 0x79f3488d88122dc2},
		"MobileNetV2":   {0x6b8dc8856b1dae3, 0x217716790df12a40},
		"MobileNetV2x2": {0x1388e6280695d08f, 0xd664f6b2f8048114},
		"ResNeXt":       {0xa5d957e115fde96, 0xd8cef3cc4edebee5},
		"ResNet152":     {0xf9a9997037b5eb08, 0x6a534328b01f072e},
		"ResNet18":      {0x426dad21aba5b7d2, 0xf2182b2d8462dafa},
		"SENet18":       {0xebd9f3bd5fdf7af7, 0x1e1e3ed0dddcf981},
		"ShuffleNetV2":  {0x4c1686557d7a2976, 0xb4a826e550f4cd27},
		"SixCNN":        {0x2f76d29e376d85dd, 0xfb4569db04a2e0d},
		"WideResNet":    {0x3b03bd1736f55275, 0xd214cab190e03bc3},
	}
	for _, name := range Names() {
		for i, seed := range []uint64{5, 1009} {
			m := MustBuild(name, 6, 3, 12, 12, 1, tensor.NewRNG(seed))
			got := stateDigest(m.State())
			if w, ok := want[name]; !ok || w[i] != got {
				t.Errorf("%s seed %d: state digest %#x, want %#x", name, seed, got, w[i])
			}
		}
	}
}

// TestBuildAllocatesArenasOnce holds a build to its two arenas: a ResNet18 at
// the benchmark's training shape (8 classes, 3×12×12) may allocate the state
// and gradient arenas plus the layer structs, their declared shapes and the
// Params() slices, which stay under layerOverhead. A layer that allocates its
// own parameter, gradient or statistic storage again, which the binder then
// replaces, fails here.
func TestBuildAllocatesArenasOnce(t *testing.T) {
	const layerOverhead = 64 << 10
	build := func() *Model { return MustBuild("ResNet18", 8, 3, 12, 12, 1, tensor.NewRNG(3)) }
	build() // the registry and any first-use state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := build()
	runtime.ReadMemStats(&after)
	arenas := 4 * uint64(len(m.State())+len(m.Grads()))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a build allocates %d B: arenas %d B, the rest %d B", got, arenas, got-arenas)
	if got > arenas+layerOverhead {
		t.Fatalf("a ResNet18 build allocates %d B, want at most its arenas' %d B plus %d B of layers", got, arenas, layerOverhead)
	}
}
