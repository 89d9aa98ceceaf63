package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles checks that stop leaves a non-empty file at
// each requested path, and that no path means no file and no error.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("%s: missing or empty (%v)", p, err)
		}
	}

	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsUnwritablePath checks that a bad path fails at Start, not
// after the run whose profile it was meant to hold.
func TestStartReportsUnwritablePath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof"), ""); err == nil {
		t.Fatal("Start accepted a path in a directory that does not exist")
	}
}
