package cliflags

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// The flag shapes of the commands, as their mains register them (wording
// shortened: only presence and defaults matter to Resolve).
var (
	utsCLI = Defaults{
		Tree: "bench-small", Profile: "sharedmem", ProfileUsage: "p",
		AlgUsage: "a", Algs: append([]core.Algorithm{core.Sequential}, Simulatable()...),
		Width: "threads", PEs: 4, WidthUsage: "w", Chunk: 16, AdaptUsage: "a", Poll: true, Seed: true,
		Trace: true, RingUsage: "r", LiveUsage: "l",
	}
	simCLI = Defaults{
		Tree: "bench-medium", Profile: "kittyhawk", ProfileUsage: "p",
		AlgUsage: "a", Algs: Simulatable(),
		Width: "pes", PEs: 64, MaxPEs: 1 << 20, WidthUsage: "w", Chunk: 16, AdaptUsage: "a", Poll: true, Seed: true,
		ShardsUsage: "s", Trace: true, Virtual: true, RingUsage: "r", LiveUsage: "l",
	}
	tuneCLI = Defaults{
		Tree: "bench-medium", Profile: "kittyhawk", ProfileUsage: "p",
		AlgUsage: "a", Algs: Simulatable(),
		Width: "pes", PEs: 64, WidthUsage: "w", ShardsUsage: "s", AdaptUsage: "a",
	}
	traceCLI = Defaults{
		Tree: "bench-medium", Profile: "kittyhawk", ProfileUsage: "p",
		AlgUsage: "a", Algs: Simulatable(),
		Width: "pes", PEs: 64, WidthUsage: "w", Chunk: 8,
		Trace: true, Virtual: true, Chart: true,
	}
	distCLI = Defaults{
		Tree: "bench-small", Width: "ranks", PEs: 1, WidthUsage: "w", Chunk: 16, AdaptUsage: "a", Seed: true, Trace: true,
	}
)

func parse(t *testing.T, d Defaults, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, d)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// TestResolveRejectsBadInput: every input that used to panic deep in a
// run, or to run on nonsense, is a one-line error from Resolve.
func TestResolveRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Defaults
		args []string
		want string
	}{
		{"unknown tree", utsCLI, []string{"-tree", "nope"}, `unknown tree "nope"`},
		{"unknown profile", simCLI, []string{"-profile", "cray"}, `unknown profile "cray"`},
		{"unknown algorithm", tuneCLI, []string{"-alg", "upc-magic"}, `unknown algorithm "upc-magic" (valid: upc-sharedmem,`},
		{"sequential is not simulatable", simCLI, []string{"-alg", "seq"}, `unknown algorithm "seq"`},
		{"uts-trace -buckets 0", traceCLI, []string{"-buckets", "0"}, "-buckets 0: need at least 1"},
		{"uts-trace -width 0", traceCLI, []string{"-width", "0"}, "-width 0: need at least 1"},
		{"uts-trace -pes 0", traceCLI, []string{"-pes", "0"}, "-pes 0: need at least 1"},
		{"uts -threads -1 -hist", utsCLI, []string{"-threads", "-1", "-hist"}, "-threads -1: need at least 1"},
		{"uts-tune -pes 0", tuneCLI, []string{"-pes", "0"}, "-pes 0: need at least 1"},
		{"uts-dist -ranks 0 -trace", distCLI, []string{"-ranks", "0", "-trace", "x.json"}, "-ranks 0: need at least 1"},
		{"uts-sim -pes beyond the bound", simCLI, []string{"-pes", "2000000", "-hist"}, "-pes 2000000 out of range [1, 1048576]"},
		{"uts-sim -pes 0", simCLI, []string{"-pes", "0"}, "-pes 0 out of range [1, 1048576]"},
		{"negative shards", tuneCLI, []string{"-shards", "-1"}, "-shards -1 out of range"},
		{"uts -chunk -3", utsCLI, []string{"-chunk", "-3"}, "-chunk -3: need at least 1"},
		{"uts-sim -poll -1", simCLI, []string{"-poll", "-1"}, "-poll -1: need at least 1"},
		{"uts-trace -chunk 0", traceCLI, []string{"-chunk", "0"}, "-chunk 0: need at least 1"},
		{"uts-dist -chunk -3 -trace", distCLI, []string{"-chunk", "-3", "-trace", "x.json"}, "-chunk -3: need at least 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, model, tracer, err := parse(t, tc.d, tc.args...).Resolve()
			if err == nil {
				t.Fatalf("accepted: spec=%v model=%v tracer=%v", sp, model, tracer)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
				t.Errorf("error %q, want one line containing %q", msg, tc.want)
			}
		})
	}
}

func TestResolveDefaults(t *testing.T) {
	for name, d := range map[string]Defaults{"uts": utsCLI, "uts-sim": simCLI, "uts-tune": tuneCLI, "uts-trace": traceCLI, "uts-dist": distCLI} {
		f := parse(t, d)
		sp, model, tracer, err := f.Resolve()
		if err != nil {
			t.Errorf("%s: defaults rejected: %v", name, err)
			continue
		}
		if sp == nil || sp.Name != d.Tree {
			t.Errorf("%s: resolved tree %v, want %s", name, sp, d.Tree)
		}
		if (model != nil) != (d.ProfileUsage != "") || (model != nil && !strings.EqualFold(model.Name, d.Profile)) {
			t.Errorf("%s: resolved model %v for profile %q", name, model, d.Profile)
		}
		if tracer != nil {
			t.Errorf("%s: a tracer without any trace flag", name)
		}
		if f.Shards != 0 || f.AdaptConfig() != nil || f.StartLive(nil, io.Discard) != nil {
			t.Errorf("%s: defaults are not the plain sequential fixed-knob run: shards=%d", name, f.Shards)
		}
	}
}

func TestResolveTracerAndKnobs(t *testing.T) {
	f := parse(t, simCLI, "-pes", "12", "-hist", "-ring", "256", "-adapt", "-shards", "4")
	_, _, tracer, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if tracer.PEs() != 12 || !tracer.Virtual() {
		t.Errorf("uts-sim tracer: %d lanes, virtual=%v; want 12 virtual lanes", tracer.PEs(), tracer.Virtual())
	}
	if f.Shards != 4 || f.AdaptConfig() == nil {
		t.Errorf("shards=%d adapt=%v, want 4 and a config", f.Shards, f.AdaptConfig())
	}

	f = parse(t, utsCLI, "-threads", "3", "-live", "1s")
	_, _, tracer, err = f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if tracer.PEs() != 3 || tracer.Virtual() {
		t.Errorf("uts tracer: %d lanes, virtual=%v; want 3 wall-clock lanes", tracer.PEs(), tracer.Virtual())
	}

	// -shards 0 means one per core, and one shard is the sequential engine.
	f = parse(t, tuneCLI, "-shards", "0")
	if _, _, _, err := f.Resolve(); err != nil {
		t.Fatal(err)
	}
	want := runtime.GOMAXPROCS(0)
	if want == 1 {
		want = 0
	}
	if f.Shards != want {
		t.Errorf("-shards 0 resolved to %d, want %d", f.Shards, want)
	}

	// A cleared tree (uts -t, uts-seq without -tree) resolves to no spec.
	f = parse(t, Defaults{TreeUsage: "only this tree"})
	if sp, _, _, err := f.Resolve(); err != nil || sp != nil {
		t.Errorf("empty -tree: spec=%v err=%v", sp, err)
	}
}

func TestFinish(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	f := parse(t, distCLI, "-ranks", "2", "-timeline", "-trace", path)
	_, _, tracer, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	tracer.Lane(1).Rec(obs.KindTermEnter, -1, 0)
	f.Note = " (plus .rankN files)"
	var out bytes.Buffer
	if err := f.Finish(&out, tracer); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "term-enter") {
		t.Errorf("no timeline in the epilogue:\n%s", out.String())
	}
	if !strings.HasSuffix(out.String(), "trace written to "+path+" (plus .rankN files)\n") {
		t.Errorf("epilogue does not end by announcing the trace file:\n%s", out.String())
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}

	// Without trace flags the epilogue is silent, and a failed write is an
	// error rather than an exit.
	out.Reset()
	if err := parse(t, distCLI).Finish(&out, nil); err != nil || out.Len() != 0 {
		t.Errorf("untraced epilogue wrote %q, err %v", out.String(), err)
	}
	f = parse(t, utsCLI, "-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "t.json"))
	_, _, tracer, _ = f.Resolve()
	if err := f.Finish(io.Discard, tracer); err == nil {
		t.Error("writing a trace into a missing directory succeeded")
	}
}
