package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one interval the benchmark itself timed around a call into the
// program: a set-up, a tree candidate, a rep, a layer micro-measurement.
// Spans live in memory until the workload ends.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the log's epoch
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the causing span, -1 for a root
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`  // rep number within its series, -1 outside a rep
	Lane     int    `json:"lane"` // 0 for the harness itself, 1+r for cluster rank r
}

// spanLog is nil-safe: untraced runs pass a nil log and pay one compare.
// The mutex is for the cluster ranks, which open their spans concurrently.
type spanLog struct {
	epoch    time.Time
	workload string
	mu       sync.Mutex
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{epoch: time.Now(), workload: workload}
}

// begin opens a span (the caller fills Name, Parent, Rep and Lane) and
// returns its index, which later spans name as their parent. A nil log
// returns -1.
func (l *spanLog) begin(s span) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.Start, s.Workload = time.Since(l.epoch).Nanoseconds(), l.workload
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = time.Since(l.epoch).Nanoseconds()
}

// quantiles is the part of an obs histogram worth keeping in a file.
type quantiles struct {
	N   int64 `json:"n"`
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

func quantilesOf(h *obs.Histogram) quantiles {
	return quantiles{N: h.Count(), P50: h.Quantile(0.50), P99: h.Quantile(0.99), Max: h.Max()}
}

// summaryJSON is the public tracer's obs.Summary of the last traced rep,
// flattened for the trace file.
type summaryJSON struct {
	Virtual       bool         `json:"virtual_time"`
	PEs           int          `json:"pes"`
	Events        int64        `json:"events"`
	Dropped       int64        `json:"dropped"`
	StealLatency  quantiles    `json:"steal_latency_ns"`
	ProbeDistance quantiles    `json:"probe_distance"`
	ChunkSize     quantiles    `json:"chunk_size_nodes"`
	Dwell         [4]quantiles `json:"dwell_ns"` // working, searching, stealing, idle
}

func summarize(s *obs.Summary) *summaryJSON {
	if s == nil {
		return nil
	}
	out := &summaryJSON{Virtual: s.Virtual, PEs: s.PEs, Events: s.Events, Dropped: s.Dropped,
		StealLatency: quantilesOf(&s.StealLatency), ProbeDistance: quantilesOf(&s.ProbeDistance),
		ChunkSize: quantilesOf(&s.ChunkSize)}
	for i := range out.Dwell {
		out.Dwell[i] = quantilesOf(&s.Dwell[i])
	}
	return out
}

// write emits the spans as Chrome trace_event JSON (open in
// ui.perfetto.dev): one complete ("X") slice per span, nested by time on
// the harness lane (cluster ranks get lanes of their own), with the parent
// index and the substrate's obs summary carried alongside.
func (l *spanLog) write(path string, summary *summaryJSON) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Lane,
			Args: map[string]any{"span": i, "parent": s.Parent, "workload": s.Workload, "rep": s.Rep}})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": l.workload, "obs_summary": summary},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
