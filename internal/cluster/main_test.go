package cluster

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a goroutine of this package outlives the
// tests: every listener, served connection and outgoing connection a node
// opens must be gone once its close, teardown or die has run and its peers
// have done the same. Teardown is asynchronous (a served connection ends
// when its peer's close reaches it), so the check polls for up to 2 s.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		var leaked []string
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if leaked = clusterGoroutines(); len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d goroutine(s) of internal/cluster still running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// clusterGoroutines returns the stack of every goroutine, other than the
// caller's, with a function of this package on it.
func clusterGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "repro/internal/cluster.") && !strings.Contains(g, "cluster.TestMain(") {
			out = append(out, g)
		}
	}
	return out
}
