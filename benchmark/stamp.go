package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// buildCommit is the repository commit the binary was built from; run.sh sets
// it with -ldflags -X. A binary built any other way stamps "unknown".
var buildCommit string

// stamp is the hardware and build a result was measured on. A number
// without it cannot be compared with anything.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cohort     int    `json:"cohort"`
	Go         string `json:"go"`
	AVX2       bool   `json:"avx2"`
	FMA        bool   `json:"fma"`
	WorkFS     string `json:"work_fs"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
}

// String renders the stamp on one line.
func (s stamp) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d cohort=%d go=%s avx2=%v fma=%v work_fs=%s seed=%d commit=%s",
		s.CPU, s.NProc, s.GOMAXPROCS, s.Cohort, s.Go, s.AVX2, s.FMA, s.WorkFS, s.Seed, s.Commit)
}

// cohortSize is C, the number of clients or peers of every workload: two, so
// that the server waits for the slower of several, whatever the box. The run
// keeps one hardware thread busy (see calib.go), so a larger cohort on a
// larger box would only make the same job longer.
func cohortSize() int { return 2 }

// newStamp reads the stamp; workDir is the directory the durable workload
// writes to.
func newStamp(workDir string, seed uint64) stamp {
	s := stamp{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Cohort: cohortSize(), Go: runtime.Version(), WorkFS: fsType(workDir),
		Seed: seed, Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			key, val, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(key) {
			case "model name":
				if s.CPU == "unknown" {
					s.CPU = strings.TrimSpace(val)
				}
			case "flags":
				for _, fl := range strings.Fields(val) {
					switch fl {
					case "avx2":
						s.AVX2 = true
					case "fma":
						s.FMA = true
					}
				}
			}
		}
		f.Close()
	}
	if buildCommit != "" {
		s.Commit = buildCommit
	}
	return s
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM), falling
// back to getrusage's ru_maxrss where /proc is missing.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
