package obs

import (
	"bufio"
	"os"
)

// WriteChromeTraceFile writes the tracer's Chrome trace_event JSON to
// path, creating or truncating it. Nil-safe: a nil tracer writes an
// empty (but valid) trace.
func WriteChromeTraceFile(path string, t *Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := WriteChromeTrace(bw, t); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
