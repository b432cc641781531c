package telemetry

import (
	"io"
	"math"
	"net/http"
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
	var b strings.Builder
	reg.WriteText(&b)
	for _, want := range []string{"nan NaN\n", "pinf +Inf\n", "ninf -Inf\n"} {
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

// TestServerScrape binds port 0, scrapes /metrics over real HTTP, and
// checks the exposition plus the pprof index and OnScrape appenders.
func TestServerScrape(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("scraped_total", "Scrapes observed.", nil, func() float64 { return 5 })
	RegisterRuntime(reg)
	srv, err := NewServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.OnScrape(func(w io.Writer) {
		io.WriteString(w, "# TYPE extra_gauge gauge\nextra_gauge 1\n")
	})

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := get("/metrics")
	for _, want := range []string{
		"scraped_total 5\n",
		"# TYPE go_goroutines gauge\n",
		"go_memstats_heap_alloc_bytes",
		"extra_gauge 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Error("pprof index not served")
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
