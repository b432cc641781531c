package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeMatchesManifest runs every workload at smoke scale, untraced
// and traced, and holds the output to BENCHMARK.json: the workload set,
// the metric set of each mode (none missing, none extra), units, finite
// values, no failed rep, and the shape of the digest line.
func TestSmokeMatchesManifest(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	start := time.Now()
	traceDir := t.TempDir()
	for i, mw := range m.Workloads {
		if mw.Name != workloads[i].name || !nameRE.MatchString(mw.Name) {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, mw.Name, workloads[i].name)
			continue
		}
		for trace, declared := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			var out, errOut bytes.Buffer
			reportPath := filepath.Join(traceDir, "report.json")
			code := cli([]string{"--workload", mw.Name, "--scale", "smoke", "--seconds", "0.05",
				"--trace", []string{"0", "1"}[trace], "--trace-dir", traceDir, "--report", reportPath}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s%s", mw.Name, trace, code, out.String(), errOut.String())
			}
			checkAbsent(t, reportPath, &workloads[i], trace)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var digest struct {
				Correct   *bool             `json:"correct"`
				Attempted *int              `json:"attempted"`
				Failed    *int              `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&digest); err != nil {
				t.Fatalf("%s trace %d: last line is not the digest: %v", mw.Name, trace, err)
			}
			if digest.Correct == nil || !*digest.Correct || digest.Attempted == nil || *digest.Attempted < 1 || digest.Failed == nil || *digest.Failed != 0 {
				t.Errorf("%s trace %d: digest %s", mw.Name, trace, lines[len(lines)-1])
			}
			for _, d := range declared {
				got, ok := digest.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s declared but not emitted", mw.Name, trace, d.Name)
				case got.Unit != d.Unit || got.Unit == "":
					t.Errorf("%s trace %d: metric %s has unit %q, declared %q", mw.Name, trace, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: metric %s is %v", mw.Name, trace, d.Name, got.Value)
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q breaks the naming rule", d.Name)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", mw.Name, d.Name, got.Value)
				}
				delete(digest.Metrics, d.Name)
			}
			for extra := range digest.Metrics {
				t.Errorf("%s trace %d: metric %s emitted but not declared", mw.Name, trace, extra)
			}
		}
		data, err := os.ReadFile(filepath.Join(traceDir, mw.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct{ Name string } `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) < 20 {
			t.Errorf("%s: trace file has %d spans (err %v)", mw.Name, len(doc.TraceEvents), err)
		}
	}
	t.Logf("all workloads, both modes: %v", time.Since(start))
}

// checkAbsent holds the rows a traced run reported as 0 without measuring
// them to the rule: they belong to a substrate the workload does not run,
// so a row the code forgot to emit cannot hide among them.
func checkAbsent(t *testing.T, reportPath string, w *workload, trace int) {
	t.Helper()
	data, err := os.ReadFile(reportPath)
	var rep report
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	if trace == 0 && len(rep.Absent) > 0 {
		t.Errorf("%s: untraced run lists absent rows %v", w.name, rep.Absent)
	}
	if trace == 1 && len(rep.Absent) == 0 {
		t.Errorf("%s: traced run measured every substrate", w.name)
	}
	substrateOf := map[string]string{"core": "core", "des": "des", "policy": "des", "cluster": "cluster"}
	for _, name := range rep.Absent {
		layer, _, _ := strings.Cut(name, ".")
		if sub, ok := substrateOf[layer]; !ok || sub == w.substrate {
			t.Errorf("%s: row %s was not measured", w.name, name)
		}
	}
}

func TestPickTree(t *testing.T) {
	g := smokeBRG
	a, triedA, err := pickTree(g, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, triedB, err := pickTree(g, 7, nil)
	if err != nil || *a != *b || triedA != triedB {
		t.Errorf("same tree seed, different trees: %v (candidate %d) vs %v (candidate %d), err %v", a, triedA, b, triedB, err)
	}
	c, _, err := pickTree(g, 8, nil)
	if err != nil || c.Seed == a.Seed {
		t.Errorf("tree seeds 7 and 8 both chose root seed %d (err %v)", a.Seed, err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		var seen []int64
		sp, tried, err := pickTree(g, seed, func(_ int, n int64) { seen = append(seen, n) })
		if err != nil {
			continue // an honest give-up; covered below
		}
		if tried != len(seen) {
			t.Errorf("seed %d: %d candidates reported, %d seen", seed, tried, len(seen))
		}
		for i, n := range seen {
			if in := n >= g.lo && n <= g.hi; in != (i == len(seen)-1) {
				t.Errorf("seed %d: candidate %d has %d nodes, window %d..%d, chosen=%v", seed, i+1, n, g.lo, g.hi, i == len(seen)-1)
			}
		}
		if n := countBounded(sp, g.hi); n < g.lo || n > g.hi {
			t.Errorf("seed %d: chose a tree of %d nodes outside %d..%d", seed, n, g.lo, g.hi)
		}
	}
	impossible := g
	impossible.lo, impossible.hi = 1, 2 // the root alone has 200 children
	if _, tried, err := pickTree(impossible, 7, nil); err == nil || tried != maxCandidates {
		t.Errorf("impossible window: err %v after %d candidates", err, tried)
	}
}

// TestCorrectnessGate feeds a rep a wrong reference and expects it to be
// counted as failed, named, and to fail the command.
func TestCorrectnessGate(t *testing.T) {
	sc := scales["smoke"]
	for _, name := range []string{"real_coarse", "sim_onesided", "cluster_tcp"} {
		w := workloadByName(name)
		j, err := setUp(w, sc.gen(w), sc.pes, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{opt: options{workload: w}}
		if b.rep(j, "good", 0, -1, variant{}) == nil {
			t.Fatalf("%s: a correct rep failed: %v", name, b.failures)
		}
		j.ref.Leaves++
		if b.rep(j, "bad", 1, -1, variant{}) != nil || len(b.failures) != 1 || b.attempted != 2 {
			t.Errorf("%s: wrong leaf count not caught: attempted %d, failures %v", name, b.attempted, b.failures)
		} else if !strings.Contains(b.failures[0], name) || !strings.Contains(b.failures[0], "seed 1") {
			t.Errorf("%s: failure does not say how to reproduce it: %s", name, b.failures[0])
		}
		if name == "sim_onesided" {
			j.ref.Leaves--
			j.pinEvents++
			if b.rep(j, "drift", 2, -1, variant{}) != nil {
				t.Errorf("%s: differing event count not caught", name)
			}
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	x := []float64{3, 1, 10, 2, 9, 4, 8, 5, 7, 6}
	if got := quartileSpread(x); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("three values have no quartiles, got spread %v", got)
	}
}

func TestVerdict(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v * 1.002, v * 0.998} }
	wide := []float64{60, 80, 100, 120, 140}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		noisy  bool
		want   string
	}{
		{"same", flat(100), flat(100), "higher", false, "unchanged"},
		{"within bound", flat(100), flat(95), "higher", false, "unchanged"},
		{"slower throughput", flat(100), flat(80), "higher", false, "regressed"},
		{"faster throughput", flat(100), flat(120), "higher", false, "improved"},
		{"more cpu", flat(1), flat(1.2), "lower", false, "regressed"},
		{"less cpu", flat(1), flat(0.8), "lower", false, "improved"},
		{"spread wider than bound", wide, wide, "higher", false, "unresolved"},
		{"wide but every run apart", wide, []float64{200, 220, 260, 300, 340}, "higher", false, "improved"},
		{"host drifted", flat(100), flat(80), "higher", true, "noisy"},
		{"host drifted, no difference", flat(100), flat(98), "higher", true, "unchanged"},
		{"single runs", []float64{100}, []float64{80}, "higher", false, "regressed"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, 0.10, c.noisy); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	m := &manifest{
		Workloads: []struct{ Name string }{{"w"}},
		EndToEnd:  []manifestMetric{{Name: "mnodes_per_s", Unit: "Mnodes/s", Better: "higher", Bound: 0.1}},
		PerLayer:  []manifestMetric{{Name: "des.events", Unit: "count", Better: "lower"}, {Name: "des.events_per_s", Unit: "1/s", Better: "higher"}},
	}
	side := func(rate, events, eps float64) *results {
		return &results{Runs: []*report{
			{Workload: "w", Trace: 0, Seed: 1, Metrics: map[string]metric{"mnodes_per_s": {rate, "Mnodes/s"}}},
			{Workload: "w", Trace: 1, Seed: 1, Metrics: map[string]metric{"des.events": {events, "count"}, "des.events_per_s": {eps, "1/s"}}},
		}}
	}
	var out bytes.Buffer
	if code := compareResults(m, side(10, 1000, 5e6), side(10.2, 1000, 4e6), &out); code != 0 {
		t.Errorf("A/A-like pair judged bad:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(m, side(10, 1000, 5e6), side(8, 1000, 5e6), &out); code == 0 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("20%% slower not flagged:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(m, side(10, 1000, 5e6), side(10, 1001, 5e6), &out); code == 0 || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("exact metric off by one not flagged:\n%s", out.String())
	}
}
