// Package telemetry is the repo's stdlib-only metrics plane: a small
// Prometheus-compatible registry (counters, gauges, summaries, all
// pull-based) that renders the text exposition, Go runtime gauges, and a
// bridge that projects an obs.Sampler's live scheduler statistics into
// metric families. It serves nothing: the one binary that exposes a
// registry over HTTP (cmd/uts-dist) owns the server, so a binary that
// links this package does not link net/http.
//
// It deliberately implements only the slice of the Prometheus text
// exposition format (version 0.0.4) this project needs — # HELP / # TYPE
// headers, label escaping, counter/gauge/summary sample lines — so the
// repo stays dependency-free while remaining scrapeable by a stock
// Prometheus server or a curl | grep smoke test.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to a metric. Names must match
// the Prometheus label grammar; values may be anything (they are escaped
// on exposition).
type Label struct {
	Name, Value string
}

// Summary is the snapshot a summary metric exposes: pre-computed
// quantiles plus the cumulative sum and count. Following Prometheus
// summary semantics, quantiles may cover a recent window while Sum and
// Count are cumulative since process start.
type Summary struct {
	// Quantiles maps q in [0,1] to the estimated value, exposed as
	// {quantile="0.5"}-style labeled samples in ascending q order.
	Quantiles []Quantile
	Sum       float64
	Count     int64
}

// Quantile is one (q, value) pair of a Summary.
type Quantile struct {
	Q, V float64
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All registration methods panic on invalid or
// duplicate registrations (programmer errors, caught at startup); the
// collect path only reads. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	extra    []func(io.Writer)
}

// family is one metric name: HELP/TYPE header plus its labeled series.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// series is one labeled time series; collect writes its sample line(s).
type series struct {
	labels  string // pre-rendered `{k="v",…}`, or ""
	collect func(w io.Writer, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// CounterFunc registers a counter whose value is pulled from fn at scrape
// time — the shape used to project the Sampler's monotone tallies.
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, "counter", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %s\n", n, l, FormatValue(fn()))
	})
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, "gauge", labels, func(w io.Writer, n, l string) {
		fmt.Fprintf(w, "%s%s %s\n", n, l, FormatValue(fn()))
	})
}

// SummaryFunc registers a summary whose quantiles/sum/count are pulled
// from fn at scrape time.
func (r *Registry) SummaryFunc(name, help string, labels []Label, fn func() Summary) {
	r.register(name, help, "summary", labels, func(w io.Writer, n, l string) {
		s := fn()
		for _, q := range s.Quantiles {
			fmt.Fprintf(w, "%s%s %s\n", n, mergeLabels(l, Label{"quantile", trimFloat(q.Q)}), FormatValue(q.V))
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", n, l, FormatValue(s.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", n, l, s.Count)
	})
}

// register adds one series under the named family, creating the family on
// first use and enforcing name validity, help/type consistency, and
// series uniqueness.
func (r *Registry) register(name, help, typ string, labels []Label, collect func(io.Writer, string, string)) {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic("telemetry: invalid label name " + strconv.Quote(l.Name) + " on " + name)
		}
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.typ != typ {
		panic("telemetry: metric " + name + " re-registered as " + typ + " (was " + f.typ + ")")
	}
	if _, dup := f.byLabels[ls]; dup {
		panic("telemetry: duplicate series " + name + ls)
	}
	s := &series{labels: ls, collect: collect}
	f.byLabels[ls] = s
	f.series = append(f.series, s)
}

// OnScrape adds fn to the appenders WriteText runs after the families, in
// the order they were added — rank 0 of a cluster appends the per-rank
// rollup here. An appender must emit valid exposition text for families
// not already in the registry.
func (r *Registry) OnScrape(fn func(io.Writer)) {
	r.mu.Lock()
	r.extra = append(r.extra, fn)
	r.mu.Unlock()
}

// WriteText renders every family in registration order in the Prometheus
// text exposition format (0.0.4), then the OnScrape appenders.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	extra := r.extra
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			s.collect(w, f.name, s.labels)
		}
	}
	for _, fn := range extra {
		fn(w)
	}
}

// validMetricName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" || strings.ContainsRune(name, ':') {
		return false
	}
	return validMetricName(name)
}

// renderLabels renders `{k="v",…}` with labels sorted by name ("" when
// empty), escaping values per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels splices extra labels into an already-rendered label string
// (used to add the quantile label to summary sample lines).
func mergeLabels(rendered string, extra ...Label) string {
	add := renderLabels(extra)
	if rendered == "" {
		return add
	}
	if add == "" {
		return rendered
	}
	return rendered[:len(rendered)-1] + "," + add[1:]
}

// escapeLabelValue escapes backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// FormatValue renders a sample value: integers below 2^53 in magnitude in
// plain decimal (1697661, not 1.697661e+06), NaN and infinities in the
// exposition spellings, anything else in the shortest form that reads
// back exactly.
func FormatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// trimFloat renders a quantile label value ("0.5", "0.99").
func trimFloat(q float64) string {
	return strconv.FormatFloat(q, 'g', -1, 64)
}
