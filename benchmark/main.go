// Command benchmark is the repository's one performance instrument: five
// permanent workloads over the three execution substrates (goroutines in
// internal/core, virtual time in internal/des, TCP in internal/cluster),
// end-to-end metrics from untraced runs and a per-layer ledger from a
// traced run. BENCHMARK.json at the repository root declares the command,
// the workloads and every metric; README.md here explains them.
//
//	bash benchmark/run.sh --workload real_coarse --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --runs 10 --out benchmark/results/x.json
//	bash benchmark/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or \"all\" for every workload in child processes")
	seed := fs.Int64("seed", 1, "scheduler seed handed to the program under test (victim order)")
	seconds := fs.Float64("seconds", 20, "seconds of timed reps per run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	scaleName := fs.String("scale", "full", "full or smoke")
	outDir := fs.String("trace-dir", filepath.Join("benchmark", "out"), "directory for <workload>.trace.json")
	reportPath := fs.String("report", "", "also write the full report (samples, host drift, failures) to this file")
	runs := fs.Int("runs", 1, "with --workload all: untraced runs per workload, seeds seed..seed+runs-1")
	out := fs.String("out", filepath.Join("benchmark", "out", "results.json"), "with --workload all: results file")
	commit := fs.String("commit", "unknown", "with --workload all: commit id to record")
	compare := fs.Bool("compare", false, "compare two results files: --compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := scales[*scaleName]
	if sc == nil {
		fmt.Fprintf(stderr, "unknown scale %q (want full or smoke)\n", *scaleName)
		return 2
	}
	// Two worker threads is the protocol on every host; a one-core host
	// gets one and says so in the recorded host facts.
	runtime.GOMAXPROCS(min(realThreads, runtime.NumCPU()))

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark --compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name == "all":
		return runAll(args, *runs, *seed, *out, *commit, stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		return 2
	}
	rep, err := runWorkload(options{workload: w, seed: *seed, seconds: *seconds,
		trace: *trace != 0, sc: sc, outDir: *outDir})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *reportPath != "" {
		if err := writeJSON(*reportPath, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	printReport(stdout, rep)
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// printReport prints every metric by name with its unit, then — as the
// last line — the digest the driver parses.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s  trace %d  seed %d  tree %s (candidate %d)\n", rep.Workload, rep.Trace, rep.Seed, rep.Tree, rep.Tried)
	fmt.Fprintf(w, "host nproc %d  GOMAXPROCS %d  %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, key := range []string{"setup_s", "rep_wall_s", "rep_cpu_s"} {
		if x := rep.Samples[key]; len(x) > 0 {
			fmt.Fprintf(w, "  spread %-12s n=%d min %.6g median %.6g max %.6g\n", key, len(x), quantile(x, 0), median(x), quantile(x, 1))
		}
	}
	if rep.Noisy {
		fmt.Fprintf(w, "  noisy: host calibration drifted %.1f%% during the run\n", rep.DriftPct)
	}
	digest, _ := json.Marshal(map[string]any{"correct": rep.Failed == 0, "attempted": rep.Attempted,
		"failed": rep.Failed, "metrics": rep.Metrics})
	fmt.Fprintf(w, "%s\n", digest)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// results is the file --workload all writes and --compare reads.
type results struct {
	Schema string    `json:"schema"`
	Host   hostFacts `json:"host"`
	Runs   []*report `json:"runs"`
}

type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// runAll runs every workload — runs untraced invocations with consecutive
// seeds, then one traced one — each in a child process of this binary, so
// memory and peak RSS are per invocation, and gathers the reports.
func runAll(args []string, runs int, seed int64, out, commit string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res := results{Schema: "uts-benchmark/1", Host: hostFacts{NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit}}
	tmp := out + ".part"
	defer os.Remove(tmp)
	status := 0
	for _, w := range workloads {
		for i := 0; i <= runs; i++ {
			// Later flags win, so the caller's --scale and --seconds pass
			// through and these override the rest.
			child := append(append([]string{}, args...), "--workload", w.name, "--report", tmp,
				"--seed", strconv.FormatInt(seed+int64(i%runs), 10), "--trace", strconv.Itoa(i/runs))
			cmd := exec.Command(self, child...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				status = 1
			}
			var rep report
			if data, err := os.ReadFile(tmp); err == nil && json.Unmarshal(data, &rep) == nil {
				res.Runs = append(res.Runs, &rep)
			}
			os.Remove(tmp)
		}
	}
	if err := writeJSON(out, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d runs)\n", out, len(res.Runs))
	return status
}
