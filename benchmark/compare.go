package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the tool needs: which metrics
// exist, which way is better, and how much worse is a regression.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadManifest reads BENCHMARK.json from the working directory or its
// parent: the tool runs from the repository root, the tests from benchmark/.
func loadManifest() (*manifest, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		if data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
			return nil, err
		}
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles of the "exclusive" method
// (Python's statistics.quantiles(x, n=4), which the driver uses). Fewer
// than four values have no quartiles; the spread is then reported as 0.
func quartileSpread(x []float64) float64 {
	if len(x) < 4 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// verdict judges side b against side a for one metric on one workload.
// worse is b's median relative to a's, signed so that positive is worse.
//
//	unresolved  a side's own spread exceeds the bound, and the two sides'
//	            values overlap
//	noisy       the medians differ by more than the bound, but most runs of
//	            a side saw the host calibration drift >10%: measure again
//	regressed   worse by more than the bound
//	improved    better by more than the bound
//	unchanged   within the bound
func verdict(a, b []float64, better string, bound float64, noisy bool) (v string, worse float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if better == "higher" {
		worse = -worse
	}
	apart := len(a) > 0 && len(b) > 0 && (quantile(b, 0) > quantile(a, 1) || quantile(b, 1) < quantile(a, 0))
	switch {
	case max(quartileSpread(a), quartileSpread(b)) > bound && !apart:
		return "unresolved", worse
	case math.Abs(worse) <= bound:
		return "unchanged", worse
	case noisy:
		return "noisy", worse
	case worse > bound:
		return "regressed", worse
	}
	return "improved", worse
}

// exactMetric reports whether a per-layer metric is a function of the
// inputs alone — tree facts and everything des computes in virtual time —
// so that two runs with the same seed must agree on it to the last bit.
func exactMetric(name string) bool {
	switch name {
	case "des.events_per_s", "des.ns_per_event_net", "des.dispatch_events_per_s",
		"des.lock_handoff_ns", "des.sharded2_events_per_s", "des.trace_overhead_pct":
		return false
	}
	return strings.HasPrefix(name, "uts.tree_") || strings.HasPrefix(name, "des.") || strings.HasPrefix(name, "policy.")
}

type group struct {
	values map[string][]float64 // metric -> one value per run
	bySeed map[int64]*report
	absent map[string]bool // per-layer rows the workload does not measure
	noisy  int
	runs   int
	failed int
}

func groupRuns(res *results, trace int) map[string]*group {
	out := map[string]*group{}
	for _, r := range res.Runs {
		if r.Trace != trace {
			continue
		}
		g := out[r.Workload]
		if g == nil {
			g = &group{values: map[string][]float64{}, bySeed: map[int64]*report{}, absent: map[string]bool{}}
			out[r.Workload] = g
		}
		g.runs++
		g.failed += r.Failed
		if r.Noisy {
			g.noisy++
		}
		g.bySeed[r.Seed] = r
		for _, name := range r.Absent {
			g.absent[name] = true
		}
		for name, m := range r.Metrics {
			g.values[name] = append(g.values[name], m.Value)
		}
	}
	return out
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareFiles prints, for every workload, the verdict on each end-to-end
// metric (medians over the untraced runs, judged against BENCHMARK.json's
// bound) and the per-layer deltas of the traced runs, with exact metrics
// compared for equality. It returns non-zero if anything regressed, an
// exact metric differs, or either side has a failed run.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	m, err := loadManifest()
	var a, b *results
	if err == nil {
		a, err = readResults(pathA)
	}
	if err == nil {
		b, err = readResults(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(m, a, b, stdout)
}

func compareResults(m *manifest, a, b *results, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "A: commit %s, %s, nproc %d    B: commit %s, %s, nproc %d\n",
		a.Host.Commit, a.Host.GoVersion, a.Host.NumCPU, b.Host.Commit, b.Host.GoVersion, b.Host.NumCPU)
	e2eA, e2eB := groupRuns(a, 0), groupRuns(b, 0)
	layA, layB := groupRuns(a, 1), groupRuns(b, 1)
	for _, wl := range m.Workloads {
		ga, gb := e2eA[wl.Name], e2eB[wl.Name]
		if ga == nil || gb == nil {
			fmt.Fprintf(w, "\n%s: missing on one side\n", wl.Name)
			bad++
			continue
		}
		fmt.Fprintf(w, "\n%s  (A: %d runs, %d noisy, %d failed reps; B: %d runs, %d noisy, %d failed reps)\n",
			wl.Name, ga.runs, ga.noisy, ga.failed, gb.runs, gb.noisy, gb.failed)
		bad += ga.failed + gb.failed
		noisy := 2*ga.noisy > ga.runs || 2*gb.noisy > gb.runs
		fmt.Fprintf(w, "  %-38s %14s %14s %9s %8s %8s  %s\n", "end-to-end", "median A", "median B", "worse by", "spread A", "spread B", "verdict")
		for _, mm := range m.EndToEnd {
			va, vb := ga.values[mm.Name], gb.values[mm.Name]
			v, worse := verdict(va, vb, mm.Better, mm.Bound, noisy)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "  %-38s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s (bound %.0f%%)\n", mm.Name,
				median(va), median(vb), 100*worse, 100*quartileSpread(va), 100*quartileSpread(vb), v, 100*mm.Bound)
		}
		la, lb := layA[wl.Name], layB[wl.Name]
		if la == nil || lb == nil {
			continue
		}
		bad += la.failed + lb.failed
		fmt.Fprintf(w, "  %-38s %14s %14s %9s\n", "per-layer (traced run)", "A", "B", "B vs A")
		for _, mm := range m.PerLayer {
			if la.absent[mm.Name] && lb.absent[mm.Name] {
				continue
			}
			va, vb := median(la.values[mm.Name]), median(lb.values[mm.Name])
			note := ""
			if exactMetric(mm.Name) {
				note = "identical"
				for seed, ra := range la.bySeed {
					if rb := lb.bySeed[seed]; rb != nil && ra.Metrics[mm.Name].Value != rb.Metrics[mm.Name].Value {
						note = "DIFFERS (exact metric)"
						bad++
					}
				}
			}
			fmt.Fprintf(w, "  %-38s %14.6g %14.6g %+8.2f%%  %s\n", mm.Name, va, vb, 100*ratio(vb-va, va), note)
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "\n%d problem(s): regressed metrics, differing exact metrics or failed reps\n", bad)
		return 1
	}
	fmt.Fprintln(w, "\nno regression")
	return 0
}
