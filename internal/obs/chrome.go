package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteChromeTrace writes the tracer's retained events as Chrome
// trace_event JSON (the "JSON Array Format" with a traceEvents wrapper),
// loadable in ui.perfetto.dev or chrome://tracing. The rendering per PE
// lane is:
//
//   - one named thread ("PE n") per lane, all in process 0;
//   - a "X" (complete) slice per Figure-1 state interval, reconstructed
//     from consecutive KindStateChange events, so each lane reads as a
//     colored Working/Searching/Stealing/Idle band — a lane starts out
//     working at 0, but one whose ring has wrapped (its oldest retained
//     event is not its first) gets no slice before its first retained
//     state change: what it was doing then is no longer known;
//   - an "i" (instant) mark per protocol event;
//   - an "s"/"f" (flow) arrow per successful steal, drawn from the
//     victim's lane at the request timestamp to the thief's lane at the
//     transfer timestamp — the steal arrows between lanes.
//
// Timestamps are microseconds (the trace_event unit) with ns precision
// kept as fractional digits, on the tracer's clock. Field order within
// each JSON event is fixed (struct order), so output for a given event
// stream is byte-stable — the golden test depends on this.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	enc := newChromeEncoder(bw)
	for pe := 0; pe < t.PEs(); pe++ {
		enc.emit(chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: pe,
			Args: map[string]interface{}{"name": fmt.Sprintf("PE %d", pe)},
		})
	}
	events := t.Events()

	// Per-lane reconstruction state: current Figure-1 state and when it
	// began (unknown: not until the next state change, the lane wrapped),
	// plus the pending steal request for flow pairing.
	type laneState struct {
		seen       bool
		unknown    bool
		state      int64
		since      int64
		hasSteal   bool
		stealTs    int64
		stealOther int32
	}
	lanes := make([]laneState, t.PEs())
	var end int64
	for _, e := range events {
		if e.T > end {
			end = e.T
		}
	}
	flowID := 0
	for _, e := range events {
		if int(e.PE) >= len(lanes) {
			continue
		}
		ls := &lanes[e.PE]
		if !ls.seen {
			ls.seen, ls.unknown = true, e.Seq > 0
		}
		ts := e.T
		switch e.Kind {
		case KindStateChange:
			if ts > ls.since && !ls.unknown {
				enc.emit(chromeEvent{
					Name: StateName(ls.state), Cat: "state", Ph: "X",
					Ts: usec(ls.since), Dur: usec(ts - ls.since),
					Pid: 0, Tid: int(e.PE),
				})
			}
			ls.state = e.Value
			ls.since = ts
			ls.unknown = false
		case KindStealRequest:
			ls.hasSteal = true
			ls.stealTs = ts
			ls.stealOther = e.Other
			enc.instant(e, ts)
		case KindChunkTransfer:
			if ls.hasSteal && ls.stealOther == e.Other {
				flowID++
				enc.emit(chromeEvent{
					Name: "steal", Cat: "steal", Ph: "s",
					Ts: usec(ls.stealTs), Pid: 0, Tid: int(e.Other),
					ID: flowID,
				})
				enc.emit(chromeEvent{
					Name: "steal", Cat: "steal", Ph: "f", BP: "e",
					Ts: usec(ts), Pid: 0, Tid: int(e.PE),
					ID: flowID,
				})
			}
			ls.hasSteal = false
			enc.instant(e, ts)
		case KindStealFail:
			ls.hasSteal = false
			enc.instant(e, ts)
		default:
			enc.instant(e, ts)
		}
	}
	// Close the open state interval of every lane at the trace end.
	for pe := range lanes {
		ls := &lanes[pe]
		if end > ls.since && !ls.unknown {
			enc.emit(chromeEvent{
				Name: StateName(ls.state), Cat: "state", Ph: "X",
				Ts: usec(ls.since), Dur: usec(end - ls.since),
				Pid: 0, Tid: pe,
			})
		}
	}
	if err := enc.close(); err != nil {
		return err
	}
	return bw.Flush()
}

// usec converts ns to the trace_event microsecond unit.
func usec(ns int64) float64 { return float64(ns) / 1e3 }

// chromeEvent is one trace_event entry. Field order is the exporter's
// stability contract; do not reorder.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	ID   int                    `json:"id,omitempty"`
	BP   string                 `json:"bp,omitempty"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeEncoder streams the {"traceEvents":[…]} wrapper one event per
// line.
type chromeEncoder struct {
	w     io.Writer
	n     int
	fail  error
	wrote bool
}

func newChromeEncoder(w io.Writer) *chromeEncoder {
	return &chromeEncoder{w: w}
}

func (c *chromeEncoder) emit(e chromeEvent) {
	if c.fail != nil {
		return
	}
	if !c.wrote {
		if _, err := io.WriteString(c.w, "{\"traceEvents\":[\n"); err != nil {
			c.fail = err
			return
		}
		c.wrote = true
	}
	b, err := json.Marshal(e)
	if err != nil {
		c.fail = err
		return
	}
	sep := ",\n"
	if c.n == 0 {
		sep = ""
	}
	if _, err := fmt.Fprintf(c.w, "%s%s", sep, b); err != nil {
		c.fail = err
		return
	}
	c.n++
}

// instant emits an "i" mark for e, carrying its peer and value as args
// where its kind's row says they mean something.
func (c *chromeEncoder) instant(e Event, ts int64) {
	ev := chromeEvent{
		Name: e.Kind.String(), Cat: "protocol", Ph: "i",
		Ts: usec(ts), Pid: 0, Tid: int(e.PE), S: "t",
	}
	args := map[string]interface{}{}
	r := e.Kind.row()
	if r.peer != "" && e.Other >= 0 {
		args["other"] = int(e.Other)
	}
	if r.value != "" {
		args[r.value] = e.Value
	}
	if len(args) > 0 {
		ev.Args = args
	}
	c.emit(ev)
}

func (c *chromeEncoder) close() error {
	if c.fail != nil {
		return c.fail
	}
	if !c.wrote {
		_, err := io.WriteString(c.w, "{\"traceEvents\":[")
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(c.w, "\n],\"displayTimeUnit\":\"ns\"}\n")
	return err
}
