package fed

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine started by its tests is still
// running at exit: the tests start servers, reader goroutines, acceptors and
// kill proxies, and each of them must be stopped by the test that started it.
func TestMain(m *testing.M) {
	baseline := map[string]bool{}
	for id := range goroutineStacks() {
		baseline[id] = true
	}
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(baseline); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "fed: %d goroutine(s) started by the tests are still running at exit:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

var goroutineHeader = regexp.MustCompile(`^goroutine (\d+) \[`)

// goroutineStacks returns every goroutine's stack dump keyed by goroutine ID.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		if m := goroutineHeader.FindStringSubmatch(g); m != nil {
			stacks[m[1]] = g
		}
	}
	return stacks
}

// leakedGoroutines returns the stacks of the goroutines that are not in the
// baseline and are still running after a settle period: a goroutine that is
// on its way out when the last test returns (a reader between its link's
// Close and its own return) gets two seconds to finish.
func leakedGoroutines(baseline map[string]bool) []string {
	var leaked []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		leaked = leaked[:0]
		for id, stack := range goroutineStacks() {
			// `go test -fuzz` installs an interrupt handler in the coordinator
			// process; its os/signal loop is the testing package's, not a test's.
			if !baseline[id] && !strings.Contains(stack, "os/signal.loop()") {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
	}
}
