// Package profiling backs the -cpuprofile and -memprofile flags of the
// command-line tools with the standard library's runtime/pprof, so a run's
// time and memory can be read offline with `go tool pprof`.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and returns stop, which ends
// it and writes a heap profile to memPath. Either path may be empty, which
// skips that profile. A command calls stop on every way out once its work
// has begun — clean or failed — because os.Exit runs no deferred calls and a
// CPU profile that is never stopped is an empty file.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		var cpuErr, memErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			if cpuErr = cpu.Close(); cpuErr != nil {
				cpuErr = fmt.Errorf("cpuprofile: %w", cpuErr)
			}
		}
		if memPath != "" {
			if memErr = writeHeap(memPath); memErr != nil {
				memErr = fmt.Errorf("memprofile: %w", memErr)
			}
		}
		return errors.Join(cpuErr, memErr)
	}, nil
}

// writeHeap writes the heap profile after a collection, so it shows what is
// live at exit and not what the last cycle happened to leave behind.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
