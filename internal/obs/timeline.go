package obs

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// WriteTimeline writes the merged, time-ordered text timeline — the
// quick terminal triage view. One line per retained event:
//
//	123.456µs  PE   3  steal-request → PE 7
//	131.002µs  PE   7  steal-grant → PE 3 chunks=4
//
// Timestamps are on the tracer's clock: virtual time, or wall time since
// the tracer epoch. Nil-safe: a nil tracer writes nothing.
func WriteTimeline(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		ts := time.Duration(e.T).Round(time.Nanosecond)
		if _, err := fmt.Fprintf(bw, "%14s  PE %3d  %s\n", ts, e.PE, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
