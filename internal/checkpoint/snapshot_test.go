package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// sampleSnapshot builds a fully-populated snapshot, including the payloads
// float32 equality can trip over: NaN (compares false to itself) and -0
// (compares equal to +0 but has a different bit pattern).
func sampleSnapshot(seed uint64) *ServerSnapshot {
	rng := tensor.NewRNG(seed)
	global := make([]float32, 257)
	rng.FillNorm(global, 1)
	global[0] = float32(math.NaN())
	global[1] = float32(math.Copysign(0, -1))
	global[2] = float32(math.Inf(-1))
	return &ServerSnapshot{
		Fingerprint: 0xABCD,
		Version:     7,
		TaskIdx:     2,
		CommitIdx:   3,
		ParamLen:    len(global),
		StaleTotal:  5,
		SimSeconds:  123.5,
		CommSeconds: 17.25,
		UpBytes:     1 << 20,
		DownBytes:   1 << 21,
		WireSent:    99999,
		WireRecv:    88888,
		Global:      global,
		Seats: []SeatRecord{
			{Alive: true, SimSeconds: 10, CommSeconds: 1, Seen: 2},
			{Alive: false, Dead: true, DeadAtTask: 1, SimSeconds: 4.5, CommSeconds: 0.5, Seen: 1},
			{Alive: true, SimSeconds: 8, CommSeconds: 2, Seen: 0},
		},
		Tasks: []TaskRecord{
			{TaskIdx: 0, AvgAccuracy: 0.5, ForgettingRate: 0, SimHours: 0.1, CommHours: 0.01, UpBytes: 100, DownBytes: 200},
			{TaskIdx: 1, AvgAccuracy: 0.4, ForgettingRate: 0.2, SimHours: 0.2, CommHours: 0.02, UpBytes: 300, DownBytes: 400},
		},
		Matrix:             [][]float64{{0.5}, {0.3, 0.5}},
		WindowCount:        2,
		WindowStale:        1,
		WindowTotal:        1.75,
		WindowWorstCompute: 3.5,
		WindowWorstComm:    0.25,
		WindowUp:           4096,
		WindowDown:         8192,
		WindowIdx:          []int32{3, 17, 200},
		WindowVals:         []float32{0.5, float32(math.NaN()), -2},
	}
}

// f32Equal compares bit patterns, so NaN == NaN and -0 != +0.
func f32Equal(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := sampleSnapshot(11)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != snap.Fingerprint || got.Version != snap.Version ||
		got.TaskIdx != snap.TaskIdx || got.CommitIdx != snap.CommitIdx ||
		got.ParamLen != snap.ParamLen || got.StaleTotal != snap.StaleTotal ||
		got.SimSeconds != snap.SimSeconds || got.CommSeconds != snap.CommSeconds ||
		got.UpBytes != snap.UpBytes || got.DownBytes != snap.DownBytes ||
		got.WireSent != snap.WireSent || got.WireRecv != snap.WireRecv {
		t.Fatalf("scalar fields corrupted: %+v", got)
	}
	if !f32Equal(got.Global, snap.Global) {
		t.Fatal("global params not bit-identical (NaN/-0 must survive)")
	}
	if len(got.Seats) != len(snap.Seats) {
		t.Fatalf("%d seats", len(got.Seats))
	}
	for i, seat := range snap.Seats {
		if got.Seats[i] != seat {
			t.Fatalf("seat %d: got %+v want %+v", i, got.Seats[i], seat)
		}
	}
	for i, task := range snap.Tasks {
		if got.Tasks[i] != task {
			t.Fatalf("task %d: got %+v want %+v", i, got.Tasks[i], task)
		}
	}
	if len(got.Matrix) != 2 || got.Matrix[1][0] != 0.3 || got.Matrix[1][1] != 0.5 {
		t.Fatalf("matrix corrupted: %v", got.Matrix)
	}
	if got.WindowCount != snap.WindowCount || got.WindowStale != snap.WindowStale ||
		got.WindowTotal != snap.WindowTotal ||
		got.WindowWorstCompute != snap.WindowWorstCompute ||
		got.WindowWorstComm != snap.WindowWorstComm ||
		got.WindowUp != snap.WindowUp || got.WindowDown != snap.WindowDown ||
		got.WindowDense != snap.WindowDense {
		t.Fatalf("window scalars corrupted: %+v", got)
	}
	if len(got.WindowIdx) != len(snap.WindowIdx) {
		t.Fatalf("%d window indices", len(got.WindowIdx))
	}
	for i, j := range snap.WindowIdx {
		if got.WindowIdx[i] != j {
			t.Fatalf("window index %d: %d want %d", i, got.WindowIdx[i], j)
		}
	}
	if !f32Equal(got.WindowVals, snap.WindowVals) {
		t.Fatal("window values not bit-identical")
	}
}

func TestSnapshotPropertyRoundTrip(t *testing.T) {
	// Randomised seat books round-trip exactly across many shapes.
	for seed := uint64(1); seed <= 25; seed++ {
		rng := tensor.NewRNG(seed)
		n := int(rng.Uint64() % 5)
		snap := &ServerSnapshot{
			Version: rng.Uint64() % 100,
			TaskIdx: int(rng.Uint64() % 7),
			Seats:   make([]SeatRecord, n),
		}
		for i := range snap.Seats {
			snap.Seats[i] = SeatRecord{
				Alive:       rng.Uint64()%2 == 0,
				Dead:        rng.Uint64()%2 == 0,
				DeadAtTask:  int(rng.Uint64() % 7),
				SimSeconds:  rng.Float64() * 1000,
				CommSeconds: rng.Float64() * 100,
				Seen:        int(rng.Uint64() % 10),
			}
		}
		if g := int(rng.Uint64() % 64); g > 0 {
			snap.Global = make([]float32, g)
			rng.FillNorm(snap.Global, 1)
			snap.ParamLen = g
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.Version != snap.Version || got.TaskIdx != snap.TaskIdx ||
			len(got.Seats) != len(snap.Seats) || !f32Equal(got.Global, snap.Global) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
		for i := range snap.Seats {
			if got.Seats[i] != snap.Seats[i] {
				t.Fatalf("seed %d: seat %d mismatch", seed, i)
			}
		}
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	snap := sampleSnapshot(13)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation at every interesting boundary fails cleanly.
	for _, cut := range []int{0, 3, snapshotHeaderLen - 1, snapshotHeaderLen + 5, len(full) - 5, len(full) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut]), int64(cut)); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	// Any format version but the written one is refused at the header: the
	// retired v1/v2 layouts and a future one alike.
	for _, ver := range []uint32{1, 2, snapshotVersion + 1} {
		other := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(other[4:], ver)
		if _, err := ReadSnapshot(bytes.NewReader(other), int64(len(other))); err == nil ||
			!strings.Contains(err.Error(), "unsupported snapshot format version") {
			t.Fatalf("format version %d must be refused, got %v", ver, err)
		}
	}
	// A flipped payload bit fails the CRC.
	corrupt := append([]byte(nil), full...)
	corrupt[snapshotHeaderLen+10] ^= 0x40
	if _, err := ReadSnapshot(bytes.NewReader(corrupt), int64(len(corrupt))); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip must fail the checksum, got %v", err)
	}
}

func TestSnapshotHugeHeaderFailsCleanly(t *testing.T) {
	// A corrupt header claiming a multi-GB payload must fail against the
	// caller's cap before any allocation, not OOM.
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, magicSnapshot)
	binary.Write(&buf, binary.LittleEndian, snapshotVersion)
	binary.Write(&buf, binary.LittleEndian, uint64(1)<<40)
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), 1<<20); err == nil ||
		!strings.Contains(err.Error(), "exceeds cap") {
		t.Fatalf("huge payload length must fail against the cap, got %v", err)
	}
}

func TestSnapshotCorruptCountFailsBeforeAlloc(t *testing.T) {
	// Corrupt an embedded element count (the global length) without breaking
	// framing: counts are validated against the remaining payload.
	snap := sampleSnapshot(17)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	// The global-length field sits after 13 u64 scalar fields.
	off := snapshotHeaderLen + 13*8
	binary.LittleEndian.PutUint64(full[off:], uint64(1)<<50)
	payload := full[snapshotHeaderLen : len(full)-4]
	binary.LittleEndian.PutUint32(full[len(full)-4:], crc32.ChecksumIEEE(payload))
	if _, err := ReadSnapshot(bytes.NewReader(full), int64(len(full))); err == nil ||
		!strings.Contains(err.Error(), "exceeds remaining payload") {
		t.Fatalf("corrupt count must fail against the payload budget, got %v", err)
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 2, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := st.Load(); err != nil || snap != nil {
		t.Fatalf("empty store must load (nil, nil), got %v %v", snap, err)
	}
	snap := sampleSnapshot(19)
	snap.Fingerprint = 0
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint != 0x1234 {
		t.Fatalf("Save must stamp the store fingerprint, got %#x", snap.Fingerprint)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != snap.Version || !f32Equal(got.Global, snap.Global) {
		t.Fatal("store round trip mismatch")
	}
	// A second store over the same directory (the restarted process) resumes
	// the sequence numbering and loads the same snapshot.
	st2, err := OpenStore(dir, 2, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := st2.Load()
	if err != nil || got2 == nil || got2.Seq != got.Seq {
		t.Fatalf("reopened store: %v %v", got2, err)
	}
}

func TestStoreTornWriteFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := sampleSnapshot(23)
	a.Version = 1
	if err := st.Save(a); err != nil {
		t.Fatal(err)
	}
	b := sampleSnapshot(29)
	b.Version = 2
	if err := st.Save(b); err != nil {
		t.Fatal(err)
	}
	// Tear the newest file (simulating a crash mid-write that somehow still
	// renamed, or post-rename sector loss): Load must fall back to snapshot a.
	newest := filepath.Join(dir, "snap-000000000002.ckpt")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("torn newest must fall back to the previous snapshot, got version %d", got.Version)
	}
}

func TestStoreAllCorruptErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleSnapshot(31)); err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "snap-000000000001.ckpt")
	if err := os.WriteFile(name, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := st.Load(); err == nil {
		t.Fatalf("all-corrupt store must error, got %+v", snap)
	}
}

func TestStoreFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 1, 0xAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleSnapshot(37)); err != nil {
		t.Fatal(err)
	}
	other, err := OpenStore(dir, 1, 0xBBBB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Load(); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch must be a hard error, got %v", err)
	}
}

func TestStoreKeepGC(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Save(sampleSnapshot(uint64(41 + i))); err != nil {
			t.Fatal(err)
		}
	}
	files, err := st.list()
	if err != nil {
		t.Fatal(err)
	}
	// keep=1: the newest plus one previous survive the GC.
	if len(files) != 2 || files[0].seq != 4 || files[1].seq != 5 {
		t.Fatalf("keep-1 GC left %v", files)
	}
}

func TestOpenStoreUnwritableFailsFast(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	dir := t.TempDir()
	ro := filepath.Join(dir, "ro")
	if err := os.Mkdir(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(ro, 1, 0); err == nil {
		t.Fatal("unwritable snapshot dir must fail at open")
	}
}

func FuzzReadSnapshot(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteSnapshot(&valid, sampleSnapshot(43)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00, 0xDC, 0xFE})
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-allocate; errors are expected.
		snap, err := ReadSnapshot(bytes.NewReader(data), int64(len(data)))
		if err == nil && snap == nil {
			t.Fatal("nil snapshot without error")
		}
	})
}
