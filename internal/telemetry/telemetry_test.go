package telemetry

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCounterExposition(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_total", "A test counter.", nil, func() float64 { return 42 })
	var b strings.Builder
	reg.WriteText(&b)
	want := "# HELP test_total A test counter.\n# TYPE test_total counter\ntest_total 42\n"
	if b.String() != want {
		t.Fatalf("exposition:\n%q\nwant:\n%q", b.String(), want)
	}
}

func TestLabelRenderingAndEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("g", "", []Label{{"b", "x\"y\\z\nw"}, {"a", "1"}}, func() float64 { return 2.5 })
	var b strings.Builder
	reg.WriteText(&b)
	// Labels sorted by name, value escaped.
	want := `g{a="1",b="x\"y\\z\nw"} 2.5`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("exposition %q missing %q", b.String(), want)
	}
}

func TestSummaryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.SummaryFunc("lat_seconds", "h", []Label{{"rank", "3"}}, func() Summary {
		return Summary{
			Quantiles: []Quantile{{0.5, 0.001}, {0.99, 0.25}},
			Sum:       1.5,
			Count:     7,
		}
	})
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds summary\n",
		`lat_seconds{rank="3",quantile="0.5"} 0.001`,
		`lat_seconds{rank="3",quantile="0.99"} 0.25`,
		`lat_seconds_sum{rank="3"} 1.5`,
		`lat_seconds_count{rank="3"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSpecialFloatValues(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("nan", "", nil, func() float64 { return math.NaN() })
	reg.GaugeFunc("pinf", "", nil, func() float64 { return math.Inf(1) })
	reg.GaugeFunc("ninf", "", nil, func() float64 { return math.Inf(-1) })
	// Integers print without an exponent: 'g' switches to one at 1e6.
	reg.GaugeFunc("mega", "", nil, func() float64 { return 1e6 })
	reg.CounterFunc("nodes_total", "", nil, func() float64 { return 1697661 })
	reg.GaugeFunc("neg", "", nil, func() float64 { return -1e6 })
	reg.GaugeFunc("frac", "", nil, func() float64 { return 2.5e-7 })
	var b strings.Builder
	reg.WriteText(&b)
	for _, want := range []string{
		"nan NaN\n", "pinf +Inf\n", "ninf -Inf\n",
		"mega 1000000\n", "nodes_total 1697661\n", "neg -1000000\n", "frac 2.5e-07\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	zero := func() float64 { return 0 }
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("bad metric name", func() {
		NewRegistry().CounterFunc("bad-name", "", nil, zero)
	})
	expectPanic("bad label name", func() {
		NewRegistry().CounterFunc("ok", "", []Label{{"bad-label", "v"}}, zero)
	})
	expectPanic("duplicate series", func() {
		r := NewRegistry()
		r.CounterFunc("dup", "", []Label{{"a", "1"}}, zero)
		r.CounterFunc("dup", "", []Label{{"a", "1"}}, zero)
	})
	expectPanic("type mismatch", func() {
		r := NewRegistry()
		r.CounterFunc("m", "", nil, zero)
		r.GaugeFunc("m", "", []Label{{"a", "1"}}, zero)
	})
	// Same family, different labels: fine.
	r := NewRegistry()
	r.CounterFunc("ok_total", "", []Label{{"a", "1"}}, zero)
	r.CounterFunc("ok_total", "", []Label{{"a", "2"}}, zero)
}

func TestValidNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"up", true}, {"go_goroutines", true}, {"ns:sub_total", true},
		{"_lead", true}, {"0lead", false}, {"", false}, {"a-b", false}, {"a b", false},
	} {
		if got := validMetricName(tc.name); got != tc.ok {
			t.Errorf("validMetricName(%q) = %v, want %v", tc.name, got, tc.ok)
		}
	}
	if validLabelName("a:b") {
		t.Error("label names must not contain colons")
	}
}

// TestOnScrape: appenders render after every family, in the order they
// were added, on every WriteText.
func TestOnScrape(t *testing.T) {
	reg := NewRegistry()
	reg.OnScrape(func(w io.Writer) { io.WriteString(w, "# TYPE first gauge\nfirst 1\n") })
	reg.GaugeFunc("registered", "", nil, func() float64 { return 7 })
	reg.OnScrape(func(w io.Writer) { io.WriteString(w, "# TYPE second gauge\nsecond 2\n") })
	want := "# TYPE registered gauge\nregistered 7\n" +
		"# TYPE first gauge\nfirst 1\n" +
		"# TYPE second gauge\nsecond 2\n"
	for i := 0; i < 2; i++ {
		var b strings.Builder
		reg.WriteText(&b)
		if b.String() != want {
			t.Fatalf("scrape %d:\n%q\nwant:\n%q", i, b.String(), want)
		}
	}
}

// TestSamplerBridge runs a real tracer + sampler and checks the uts_*
// projection end to end, including the per-kind label vocabulary.
func TestSamplerBridge(t *testing.T) {
	tr := obs.New(2, 64)
	l0 := tr.Lane(0)
	l0.Rec(obs.KindStealRequest, 1, 0)
	l0.Rec(obs.KindChunkTransfer, 1, 12)
	l0.AddNodes(100)
	tr.Lane(1).Rec(obs.KindStealRequest, 0, 0)
	tr.Lane(1).Rec(obs.KindStealFail, 0, 0)

	s := obs.NewSampler(tr)
	s.Sample()

	reg := NewRegistry()
	RegisterSampler(reg, s)
	var b strings.Builder
	reg.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"uts_nodes_total 100\n",
		"uts_events_total 4\n",
		"uts_steals_total 1\n",
		"uts_steal_failures_total 1\n",
		`uts_events_kind_total{kind="chunk-transfer"} 1`,
		`uts_events_kind_total{kind="steal-fail"} 1`,
		"uts_steal_latency_seconds_count 2\n",
		"uts_chunk_size_nodes_sum 12\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Nil sampler: families registered, everything reads zero.
	nilReg := NewRegistry()
	RegisterSampler(nilReg, nil)
	b.Reset()
	nilReg.WriteText(&b)
	if !strings.Contains(b.String(), "uts_nodes_total 0\n") {
		t.Error("nil-sampler projection should read zero")
	}
}

// TestSamplerWindowedRates checks that a second sample closes a window
// with positive rates.
func TestSamplerWindowedRates(t *testing.T) {
	tr := obs.New(1, 64)
	s := obs.NewSampler(tr)
	s.Sample()
	tr.Lane(0).AddNodes(1000)
	tr.Lane(0).Rec(obs.KindRelease, -1, 1)
	time.Sleep(5 * time.Millisecond)
	st := s.Sample()
	if st.NodesPerSec <= 0 {
		t.Errorf("NodesPerSec = %v, want > 0", st.NodesPerSec)
	}
	if st.EventsPerSec <= 0 {
		t.Errorf("EventsPerSec = %v, want > 0", st.EventsPerSec)
	}
	if st.Window <= 0 {
		t.Errorf("Window = %v, want > 0", st.Window)
	}
}
