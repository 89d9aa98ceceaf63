// Package checkpoint persists the federation server's seat-book snapshots, so
// that a server restarted after a crash resumes its job where the last cut
// left it. A snapshot is a small self-describing little-endian binary layout
// with a CRC-32 trailer, written and found again through an atomic
// sequence-numbered Store (see ServerSnapshot and Store).
//
// Decoders never trust a header's element count for allocation: every count
// is checked against the payload bytes actually present, so a truncated or
// corrupt file fails with a clean error instead of attempting a multi-GB
// allocation.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tensor"
)

// Server snapshot framing: a fixed header (magic, format version, payload
// length), the little-endian payload, and a CRC-32 (IEEE) trailer over the
// payload. The CRC is what makes a torn write — a crash mid-rename or
// mid-flush — detectable, so Store.Load can fall back to the previous
// snapshot instead of restoring garbage.
const (
	magicSnapshot = uint32(0xFEDC0003)
	// snapshotVersion is the format written and the only one read. v3 added
	// the seat flag for a cleanly departed seat (SeatRecord.Left), so
	// elastic-membership churn composes with crash-restart: a retired seat
	// restores retired, not as an awaited rejoiner. v2 appended the open
	// commit window (the async scheduler's partial aggregation between
	// commits) so a restart resumes mid-window instead of discarding up to
	// K−1 folded uploads. Files older than v3 carry an older job-fingerprint
	// format that Store.Load refuses anyway, so no reader is kept for them.
	snapshotVersion = uint32(3)
	// snapshotHeaderLen is magic (4) + format version (4) + payload length (8).
	snapshotHeaderLen = 16
	// DefaultMaxSnapshotBytes caps the payload length ReadSnapshot accepts
	// when the caller supplies no tighter bound (Store.Load passes the
	// file's actual size).
	DefaultMaxSnapshotBytes = int64(1) << 31
)

// SeatRecord is one client's retained seat book inside a ServerSnapshot:
// everything the server keeps per seat that a restart must not lose. Seen
// is authoritative — a client whose post-snapshot uploads were lost in the
// crash retrains them, because the restarted server's Catchup says so.
type SeatRecord struct {
	// Alive reports the seat was connected at the snapshot cut; a restarted
	// server waits for every such seat to rejoin before closing the task.
	Alive bool
	// Dead reports the seat was recorded in Result.DeadAfter (evicted, or a
	// device death report) at DeadAtTask.
	Dead bool
	// Left reports the seat retired itself with a clean Leave frame (v3):
	// neither alive nor dead, its books closed in good standing. A restarted
	// server does not await its rejoin — though the departed client may
	// still make one.
	Left bool
	// DeadAtTask is the task index recorded in DeadAfter; meaningless unless
	// Dead.
	DeadAtTask int
	// SimSeconds / CommSeconds are the seat's accumulated asynchronous
	// device clocks.
	SimSeconds  float64
	CommSeconds float64
	// Seen is the seat's upload count for the in-progress task — the round
	// index its client resumes from.
	Seen int
}

// TaskRecord is one completed task's summary row (the fed.TaskPoint the
// server already reported), carried in the snapshot so a restarted run's
// final Result covers tasks finished before the crash.
type TaskRecord struct {
	// TaskIdx is the task's index in the continual-learning sequence.
	TaskIdx int
	// AvgAccuracy / ForgettingRate are the paper's §V measures at this task.
	AvgAccuracy    float64
	ForgettingRate float64
	// SimHours / CommHours are the cumulative simulated clocks at task end.
	SimHours  float64
	CommHours float64
	// UpBytes / DownBytes are the cumulative simulated traffic at task end.
	UpBytes   int64
	DownBytes int64
}

// ServerSnapshot is a consistent cut of a federation server: the versioned
// global model plus the full seat book. The server writes one at every
// aggregation commit — durably, before the commit's broadcast, so no client
// can ever hold a global version newer than the latest snapshot — and one
// at every task boundary. A restarted server process reconstructs its
// scheduler state from the newest valid snapshot and re-admits the cohort
// through the rejoin path (see fed.NewServerFromSnapshot and
// docs/ARCHITECTURE.md's restart state machine).
type ServerSnapshot struct {
	// Fingerprint is the job fingerprint (fed.Config.Fingerprint) the run
	// was started with; a restart with different knobs must not resume from
	// it. 0 opts out of the check.
	Fingerprint uint64
	// Seq is the snapshot's sequence number in its Store, assigned by Save.
	Seq uint64
	// Version is the global model's commit version at the cut.
	Version uint64
	// TaskIdx is the task to resume: the task in progress at a commit cut,
	// or the next task at a boundary cut.
	TaskIdx int
	// CommitIdx is the number of commits already made within TaskIdx (0 at
	// a boundary cut), so resumed observer Round ordinals continue instead
	// of restarting.
	CommitIdx int
	// ParamLen is the agreed parameter-vector length (0 before any upload).
	ParamLen int
	// StaleTotal is the cumulative count of updates rejected by the
	// staleness bound.
	StaleTotal int
	// SimSeconds / CommSeconds are the run's simulated clocks at the cut.
	SimSeconds  float64
	CommSeconds float64
	// UpBytes / DownBytes are the run's cumulative simulated traffic.
	UpBytes   int64
	DownBytes int64
	// WireSent / WireRecv are the measured wire-traffic totals
	// (fed.Server.WireTraffic) at the cut, folded into the restarted
	// server's retired counters so no carried byte is forgotten.
	WireSent int64
	WireRecv int64
	// Global is the latest committed global model; nil before any commit.
	Global []float32
	// The open commit window: the asynchronous scheduler's state between
	// commits, cut after every accepted (or staleness-rejected) upload so a
	// restart resumes the window mid-fill instead of asking clients to
	// retrain up to CommitEvery−1 uploads. WindowCount is the number of
	// updates folded into the window (0 = empty window);
	// WindowStale, WindowTotal, WindowWorstCompute/WindowWorstComm and
	// WindowUp/WindowDown mirror the scheduler's per-window accounting.
	// The partial accumulation itself is WindowVals — the raw unscaled sums
	// over the whole vector when WindowDense, or over the ascending
	// coordinates WindowIdx otherwise.
	WindowCount        int
	WindowStale        int
	WindowTotal        float64
	WindowWorstCompute float64
	WindowWorstComm    float64
	WindowUp           int64
	WindowDown         int64
	WindowDense        bool
	WindowIdx          []int32
	WindowVals         []float32
	// Seats is the per-client seat book, indexed by client ID.
	Seats []SeatRecord
	// Tasks are the completed tasks' summary rows, in task order.
	Tasks []TaskRecord
	// Matrix holds the completed rows of the continual-learning accuracy
	// matrix: Matrix[i] has i+1 entries, accuracy on tasks 0..i after
	// learning task i.
	Matrix [][]float64
}

// WriteSnapshot serialises one server snapshot: header, payload, CRC-32
// trailer.
func WriteSnapshot(w io.Writer, snap *ServerSnapshot) error {
	var payload bytes.Buffer
	pw := &leWriter{w: &payload}
	pw.u64(snap.Fingerprint)
	pw.u64(snap.Seq)
	pw.u64(snap.Version)
	pw.u64(uint64(snap.TaskIdx))
	pw.u64(uint64(snap.CommitIdx))
	pw.u64(uint64(snap.ParamLen))
	pw.u64(uint64(snap.StaleTotal))
	pw.f64(snap.SimSeconds)
	pw.f64(snap.CommSeconds)
	pw.i64(snap.UpBytes)
	pw.i64(snap.DownBytes)
	pw.i64(snap.WireSent)
	pw.i64(snap.WireRecv)
	pw.u64(uint64(len(snap.Global)))
	pw.f32s(snap.Global)
	pw.u64(uint64(len(snap.Seats)))
	for _, seat := range snap.Seats {
		var flags byte
		if seat.Alive {
			flags |= 1
		}
		if seat.Dead {
			flags |= 2
		}
		if seat.Left {
			flags |= 4
		}
		pw.u8(flags)
		pw.u64(uint64(seat.DeadAtTask))
		pw.f64(seat.SimSeconds)
		pw.f64(seat.CommSeconds)
		pw.u64(uint64(seat.Seen))
	}
	pw.u64(uint64(len(snap.Tasks)))
	for _, t := range snap.Tasks {
		pw.u64(uint64(t.TaskIdx))
		pw.f64(t.AvgAccuracy)
		pw.f64(t.ForgettingRate)
		pw.f64(t.SimHours)
		pw.f64(t.CommHours)
		pw.i64(t.UpBytes)
		pw.i64(t.DownBytes)
	}
	pw.u64(uint64(len(snap.Matrix)))
	for _, row := range snap.Matrix {
		pw.u64(uint64(len(row)))
		for _, v := range row {
			pw.f64(v)
		}
	}
	// The open commit window.
	var wflags byte
	if snap.WindowDense {
		wflags |= 1
	}
	pw.u8(wflags)
	pw.u64(uint64(snap.WindowCount))
	pw.u64(uint64(snap.WindowStale))
	pw.f64(snap.WindowTotal)
	pw.f64(snap.WindowWorstCompute)
	pw.f64(snap.WindowWorstComm)
	pw.i64(snap.WindowUp)
	pw.i64(snap.WindowDown)
	pw.u64(uint64(len(snap.WindowIdx)))
	pw.i32s(snap.WindowIdx)
	pw.u64(uint64(len(snap.WindowVals)))
	pw.f32s(snap.WindowVals)
	if pw.err != nil {
		return pw.err
	}
	hw := &leWriter{w: w}
	hw.u32(magicSnapshot)
	hw.u32(snapshotVersion)
	hw.u64(uint64(payload.Len()))
	hw.write(payload.Bytes())
	hw.u32(crc32.ChecksumIEEE(payload.Bytes()))
	return hw.err
}

// ReadSnapshot deserialises a server snapshot, validating the magic, format
// version, payload length (against maxBytes; <= 0 means
// DefaultMaxSnapshotBytes — Store.Load passes the file's size, so a corrupt
// header can never demand more memory than the file holds), the CRC-32
// trailer, and every embedded element count against the bytes that remain —
// a torn or corrupt file fails cleanly, it never panics or over-allocates.
func ReadSnapshot(r io.Reader, maxBytes int64) (*ServerSnapshot, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxSnapshotBytes
	}
	hdr := make([]byte, snapshotHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr); m != magicSnapshot {
		return nil, fmt.Errorf("checkpoint: bad snapshot magic %#x", m)
	}
	ver := binary.LittleEndian.Uint32(hdr[4:])
	if ver != snapshotVersion {
		return nil, fmt.Errorf("checkpoint: unsupported snapshot format version %d", ver)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n > uint64(maxBytes) {
		return nil, fmt.Errorf("checkpoint: snapshot payload length %d exceeds cap %d (torn or corrupt header)", n, maxBytes)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot payload: %w", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("checkpoint: snapshot checksum mismatch (computed %#x, stored %#x): torn or corrupt write", got, want)
	}
	pr := &leReader{buf: payload}
	snap := &ServerSnapshot{
		Fingerprint: pr.u64(),
		Seq:         pr.u64(),
		Version:     pr.u64(),
		TaskIdx:     pr.intField("task index"),
		CommitIdx:   pr.intField("commit index"),
		ParamLen:    pr.intField("parameter length"),
		StaleTotal:  pr.intField("stale total"),
		SimSeconds:  pr.f64(),
		CommSeconds: pr.f64(),
		UpBytes:     pr.i64(),
		DownBytes:   pr.i64(),
		WireSent:    pr.i64(),
		WireRecv:    pr.i64(),
	}
	snap.Global = pr.f32s(pr.count("global params", 4))
	nSeats := pr.count("seats", 1+8+8+8+8)
	if pr.err == nil {
		snap.Seats = make([]SeatRecord, nSeats)
		for i := range snap.Seats {
			flags := pr.u8()
			snap.Seats[i] = SeatRecord{
				Alive:       flags&1 != 0,
				Dead:        flags&2 != 0,
				Left:        flags&4 != 0,
				DeadAtTask:  pr.intField("dead-at task"),
				SimSeconds:  pr.f64(),
				CommSeconds: pr.f64(),
				Seen:        pr.intField("seen count"),
			}
		}
	}
	nTasks := pr.count("tasks", 7*8)
	if pr.err == nil {
		snap.Tasks = make([]TaskRecord, nTasks)
		for i := range snap.Tasks {
			snap.Tasks[i] = TaskRecord{
				TaskIdx:        pr.intField("task record index"),
				AvgAccuracy:    pr.f64(),
				ForgettingRate: pr.f64(),
				SimHours:       pr.f64(),
				CommHours:      pr.f64(),
				UpBytes:        pr.i64(),
				DownBytes:      pr.i64(),
			}
		}
	}
	nRows := pr.count("matrix rows", 8)
	if pr.err == nil {
		snap.Matrix = make([][]float64, nRows)
		for i := range snap.Matrix {
			row := make([]float64, pr.count("matrix row entries", 8))
			for j := range row {
				row[j] = pr.f64()
			}
			snap.Matrix[i] = row
		}
	}
	wflags := pr.u8()
	snap.WindowDense = wflags&1 != 0
	snap.WindowCount = pr.intField("window count")
	snap.WindowStale = pr.intField("window stale count")
	snap.WindowTotal = pr.f64()
	snap.WindowWorstCompute = pr.f64()
	snap.WindowWorstComm = pr.f64()
	snap.WindowUp = pr.i64()
	snap.WindowDown = pr.i64()
	snap.WindowIdx = pr.i32s(pr.count("window indices", 4))
	snap.WindowVals = pr.f32s(pr.count("window values", 4))
	if pr.err != nil {
		return nil, pr.err
	}
	if pr.rem() != 0 {
		return nil, fmt.Errorf("checkpoint: snapshot payload has %d trailing bytes", pr.rem())
	}
	return snap, nil
}

// Store is a directory of sequence-numbered server snapshots with atomic
// writes (temp file + fsync + rename) and keep-N garbage collection. It is
// the durable side of the crash-only server: fed.Server writes through it
// at every commit and task boundary, and a restarted process reads the
// newest valid snapshot back with Load. Store implements fed.SnapshotSink.
type Store struct {
	dir  string
	keep int
	fp   uint64

	mu  sync.Mutex
	seq uint64
}

const (
	snapshotPrefix = "snap-"
	snapshotSuffix = ".ckpt"
)

// OpenStore opens (creating if necessary) a snapshot directory, probing
// writability so a misconfigured -snapshot-dir fails at startup rather than
// at the first commit. keep is the number of previous snapshots retained
// besides the newest (negative keeps everything); fingerprint, when
// non-zero, is stamped into every saved snapshot and checked on Load —
// resuming a job from a different job's books is a configuration error, not
// a fallback case. Sequence numbering continues from any snapshots already
// present.
func OpenStore(dir string, keep int, fingerprint uint64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot dir: %w", err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot dir %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	st := &Store{dir: dir, keep: keep, fp: fingerprint}
	files, err := st.list()
	if err != nil {
		return nil, err
	}
	if len(files) > 0 {
		st.seq = files[len(files)-1].seq
	}
	return st, nil
}

// Dir reports the store's directory.
func (st *Store) Dir() string { return st.dir }

// snapFile is one on-disk snapshot, parsed from its file name.
type snapFile struct {
	name string
	seq  uint64
}

// list returns the directory's snapshots in ascending sequence order.
func (st *Store) list() ([]snapFile, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot dir: %w", err)
	}
	var files []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(name[len(snapshotPrefix):len(name)-len(snapshotSuffix)], 10, 64)
		if err != nil {
			continue
		}
		files = append(files, snapFile{name: name, seq: seq})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	return files, nil
}

// Save durably persists one snapshot: serialise to a temp file in the same
// directory, fsync, rename into its sequence-numbered place, fsync the
// directory (best effort), then prune all but the newest keep+1 snapshots.
// The rename is what makes the write atomic — a crash at any instant leaves
// either the complete new snapshot or the previous one, never a half-file
// under a valid name (a torn temp file fails Load's CRC and is skipped).
// Save stamps snap.Seq and, when unset, snap.Fingerprint.
func (st *Store) Save(snap *ServerSnapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	snap.Seq = st.seq
	if snap.Fingerprint == 0 {
		snap.Fingerprint = st.fp
	}
	tmp, err := os.CreateTemp(st.dir, snapshotPrefix+"*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: snapshot temp file: %w", err)
	}
	if err := WriteSnapshot(tmp, snap); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: snapshot close: %w", err)
	}
	final := filepath.Join(st.dir, fmt.Sprintf("%s%012d%s", snapshotPrefix, st.seq, snapshotSuffix))
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: snapshot rename: %w", err)
	}
	if d, err := os.Open(st.dir); err == nil {
		d.Sync()
		d.Close()
	}
	st.gc()
	return nil
}

// gc prunes old snapshots down to the newest keep+1, best effort.
func (st *Store) gc() {
	if st.keep < 0 {
		return
	}
	files, err := st.list()
	if err != nil {
		return
	}
	for len(files) > st.keep+1 {
		os.Remove(filepath.Join(st.dir, files[0].name))
		files = files[1:]
	}
}

// Load returns the newest snapshot that passes its checksum, falling back
// to older snapshots when the newest is torn or corrupt — the crash-only
// recovery read path. It returns (nil, nil) when the directory holds no
// snapshots (a fresh start), and an error when snapshots exist but none is
// readable, or when the newest readable one carries a different job
// fingerprint (resuming under changed knobs is refused, not papered over).
func (st *Store) Load() (*ServerSnapshot, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	files, err := st.list()
	if err != nil {
		return nil, err
	}
	var firstErr error
	for i := len(files) - 1; i >= 0; i-- {
		path := filepath.Join(st.dir, files[i].name)
		snap, err := loadSnapshotFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", files[i].name, err)
			}
			continue
		}
		if st.fp != 0 && snap.Fingerprint != 0 && snap.Fingerprint != st.fp {
			return nil, fmt.Errorf("checkpoint: snapshot %s fingerprint %#x does not match job %#x (different seed/flags?)",
				files[i].name, snap.Fingerprint, st.fp)
		}
		snap.Seq = files[i].seq
		return snap, nil
	}
	if firstErr != nil {
		return nil, fmt.Errorf("checkpoint: no readable snapshot in %s: %w", st.dir, firstErr)
	}
	return nil, nil
}

// loadSnapshotFile reads one snapshot file, capping the payload at the
// file's actual size.
func loadSnapshotFile(path string) (*ServerSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadSnapshot(f, fi.Size())
}

// leWriter accumulates little-endian fields, latching the first error.
// Vectors are staged a chunk at a time through stage, one buffer reused by
// every vector the writer writes.
type leWriter struct {
	w       io.Writer
	err     error
	scratch [8]byte
	stage   []byte
}

func (lw *leWriter) write(b []byte) {
	if lw.err == nil {
		_, lw.err = lw.w.Write(b)
	}
}

func (lw *leWriter) u8(v byte) {
	lw.scratch[0] = v
	lw.write(lw.scratch[:1])
}

func (lw *leWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(lw.scratch[:4], v)
	lw.write(lw.scratch[:4])
}

func (lw *leWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(lw.scratch[:8], v)
	lw.write(lw.scratch[:8])
}

func (lw *leWriter) i64(v int64) { lw.u64(uint64(v)) }

func (lw *leWriter) f64(v float64) { lw.u64(math.Float64bits(v)) }

// writeChunk is the element budget of one write of the chunked encoders (1
// MiB of file bytes for 4-byte elements), so a large vector is staged a slice
// at a time rather than whole.
const writeChunk = 1 << 18

// staged returns the writer's stage buffer holding at least 4·n bytes, n at
// most writeChunk.
func (lw *leWriter) staged(n int) []byte {
	if cap(lw.stage) < 4*n {
		lw.stage = make([]byte, 4*n)
	}
	return lw.stage[:4*n]
}

// f32s writes vals as one little-endian float32 run, the form a wire params
// block's values take.
func (lw *leWriter) f32s(vals []float32) {
	for len(vals) > 0 && lw.err == nil {
		c := min(len(vals), writeChunk)
		buf := lw.staged(c)
		tensor.PutFloat32sLE(buf, vals[:c])
		lw.write(buf)
		vals = vals[c:]
	}
}

func (lw *leWriter) i32s(vals []int32) {
	for len(vals) > 0 && lw.err == nil {
		c := min(len(vals), writeChunk)
		buf := lw.staged(c)
		for i, v := range vals[:c] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		lw.write(buf)
		vals = vals[c:]
	}
}

// leReader parses little-endian fields from an in-memory payload, latching
// the first error; every element count is validated against the bytes that
// remain before anything is allocated.
type leReader struct {
	buf []byte
	off int
	err error
}

func (p *leReader) rem() int { return len(p.buf) - p.off }

func (p *leReader) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if p.rem() < n {
		p.err = fmt.Errorf("checkpoint: snapshot payload truncated (%d bytes remain, need %d)", p.rem(), n)
		return nil
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b
}

func (p *leReader) u8() byte {
	b := p.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (p *leReader) u64() uint64 {
	b := p.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (p *leReader) i64() int64 { return int64(p.u64()) }

func (p *leReader) f64() float64 { return math.Float64frombits(p.u64()) }

// intField decodes a non-negative int-sized counter field.
func (p *leReader) intField(what string) int {
	v := p.u64()
	if p.err == nil && v > 1<<31 {
		p.err = fmt.Errorf("checkpoint: implausible snapshot %s %d", what, v)
		return 0
	}
	return int(v)
}

// count decodes an element count and validates it against the remaining
// payload bytes, so a corrupt count fails before any allocation.
func (p *leReader) count(what string, elemSize int) int {
	v := p.u64()
	if p.err != nil {
		return 0
	}
	if v > uint64(p.rem()/elemSize) {
		p.err = fmt.Errorf("checkpoint: snapshot %s count %d exceeds remaining payload (%d bytes)", what, v, p.rem())
		return 0
	}
	return int(v)
}

func (p *leReader) f32s(n int) []float32 {
	if p.err != nil || n == 0 {
		return nil
	}
	b := p.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]float32, n)
	tensor.GetFloat32sLE(out, b)
	return out
}

func (p *leReader) i32s(n int) []int32 {
	if p.err != nil || n == 0 {
		return nil
	}
	b := p.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
