// Package cliflags is the one definition of the flags the UTS commands
// share — the tree, machine-profile, scheduler, shard and trace/live
// groups of uts, uts-sim, uts-dist, uts-tune and uts-trace — and of what
// they resolve to. A command passes its own defaults and wording in a
// Defaults value; flag names, validation, the tracer/sampler set-up and
// the -timeline/-trace epilogue exist once, here. Bad input is always an
// error returned to main, never a panic further down and never an exit
// from inside this package.
package cliflags

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/uts"
)

// Defaults is what differs between commands: which of the shared flags a
// command has, their default values, and the help text where the wording
// is the command's own. An empty usage or a zero default leaves that flag
// unregistered, except where noted.
type Defaults struct {
	Tree      string // default of -tree (always registered)
	TreeUsage string // "" = "named sample tree"

	Profile      string // default of -profile
	ProfileUsage string

	AlgUsage string           // usage of -alg (default upc-distmem)
	Algs     []core.Algorithm // the values -alg accepts

	Width      string // name of the PE-count flag: "threads", "pes" or "ranks"
	PEs        int    // its default
	MaxPEs     int    // its upper bound; 0 = none
	WidthUsage string

	Chunk      int    // default of -chunk
	AdaptUsage string // usage of -adapt
	Poll, Seed bool   // register -poll, -seed

	ShardsUsage string // usage of -shards

	Trace         bool   // register -trace, -timeline, -hist
	TraceUsage    string // "" = the shared wording, likewise the next two
	TimelineUsage string
	HistUsage     string
	RingUsage     string // usage of -ring
	LiveUsage     string // usage of -live
	Virtual       bool   // the tracer stamps virtual time (simulators)

	Chart bool // register uts-trace's -buckets, -width
}

// Flags holds the parsed values of the shared flags.
type Flags struct {
	Tree, Profile, Alg string
	PEs, Chunk, Poll   int
	Seed               int64
	Adapt              bool

	// Shards is des.Config's field of the same name; after Resolve it is
	// the effective count (0 = sequential engine).
	Shards int

	TraceOut       string
	Timeline, Hist bool
	Ring           int
	Live           time.Duration
	// Note is appended to the "trace written to" line of Finish.
	Note string

	Buckets, Width int

	d Defaults
}

// Register defines the flags d selects on fs and returns where their
// values land once fs is parsed.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{d: d}
	fs.StringVar(&f.Tree, "tree", d.Tree, cmp.Or(d.TreeUsage, "named sample tree"))
	if d.ProfileUsage != "" {
		fs.StringVar(&f.Profile, "profile", d.Profile, d.ProfileUsage)
	}
	if d.AlgUsage != "" {
		fs.StringVar(&f.Alg, "alg", string(core.UPCDistMem), d.AlgUsage)
	}
	if d.Width != "" {
		fs.IntVar(&f.PEs, d.Width, d.PEs, d.WidthUsage)
	}
	if d.Chunk != 0 {
		fs.IntVar(&f.Chunk, "chunk", d.Chunk, "steal granularity k (nodes)")
	}
	if d.AdaptUsage != "" {
		fs.BoolVar(&f.Adapt, "adapt", false, d.AdaptUsage)
	}
	if d.Poll {
		fs.IntVar(&f.Poll, "poll", 8, "mpi-ws polling interval (nodes)")
	}
	if d.Seed {
		fs.Int64Var(&f.Seed, "seed", 0, "probe-order seed")
	}
	if d.ShardsUsage != "" {
		fs.IntVar(&f.Shards, "shards", 1, d.ShardsUsage)
	}
	if d.Trace {
		fs.StringVar(&f.TraceOut, "trace", "", cmp.Or(d.TraceUsage, "write a Chrome trace_event JSON file (open in ui.perfetto.dev)"))
		fs.BoolVar(&f.Timeline, "timeline", false, cmp.Or(d.TimelineUsage, "print the merged steal-protocol event timeline"))
		fs.BoolVar(&f.Hist, "hist", false, cmp.Or(d.HistUsage, "record protocol events and fold latency histograms into the summary"))
	}
	if d.RingUsage != "" {
		fs.IntVar(&f.Ring, "ring", 0, d.RingUsage)
	}
	if d.LiveUsage != "" {
		fs.DurationVar(&f.Live, "live", 0, d.LiveUsage)
	}
	if d.Chart {
		fs.IntVar(&f.Buckets, "buckets", 40, "time buckets in the chart")
		fs.IntVar(&f.Width, "width", 50, "chart width in characters")
	}
	return f
}

// Simulatable lists every algorithm the simulator accepts: the paper's
// five plus the post-paper extensions. Sequential is excluded (simulate it
// as 1 PE of any algorithm).
func Simulatable() []core.Algorithm {
	return append(append([]core.Algorithm{}, core.Algorithms...), core.Extensions...)
}

// AlgList renders algs for help and error text.
func AlgList(algs []core.Algorithm) string {
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}

// Resolve validates the parsed flags and turns them into what a run
// needs: the tree (nil when Tree was cleared), the machine model (nil
// without a -profile flag) and the tracer (nil unless a trace flag asks
// for one; one lane per PE). Every rejected value is reported as a
// one-line error naming the flag.
func (f *Flags) Resolve() (*uts.Spec, *pgas.Model, *obs.Tracer, error) {
	if err := f.validate(); err != nil {
		return nil, nil, nil, err
	}
	if f.d.ShardsUsage != "" && f.Shards == 0 {
		f.Shards = runtime.GOMAXPROCS(0)
	}
	if f.Shards == 1 {
		f.Shards = 0
	}
	var tracer *obs.Tracer
	if f.TraceOut != "" || f.Timeline || f.Hist || f.Live > 0 {
		if f.d.Virtual {
			tracer = obs.NewVirtual(f.PEs, f.Ring)
		} else {
			tracer = obs.New(f.PEs, f.Ring)
		}
	}
	return uts.ByName(f.Tree), pgas.Profiles[f.Profile], tracer, nil
}

func (f *Flags) validate() error {
	d := &f.d
	if f.Tree != "" && uts.ByName(f.Tree) == nil {
		return fmt.Errorf("unknown tree %q", f.Tree)
	}
	if d.AlgUsage != "" && !slices.Contains(d.Algs, core.Algorithm(f.Alg)) {
		return fmt.Errorf("unknown algorithm %q (valid: %s)", f.Alg, AlgList(d.Algs))
	}
	if d.MaxPEs > 0 && (f.PEs < 1 || f.PEs > d.MaxPEs) {
		return fmt.Errorf("-%s %d out of range [1, %d]", d.Width, f.PEs, d.MaxPEs)
	}
	if d.Width != "" {
		if err := atLeast1(d.Width, f.PEs); err != nil {
			return err
		}
	}
	if d.Chunk != 0 {
		if err := atLeast1("chunk", f.Chunk); err != nil {
			return err
		}
	}
	if d.Poll {
		if err := atLeast1("poll", f.Poll); err != nil {
			return err
		}
	}
	if d.ProfileUsage != "" && pgas.Profiles[f.Profile] == nil {
		return fmt.Errorf("unknown profile %q", f.Profile)
	}
	if f.Shards < 0 {
		return fmt.Errorf("-shards %d out of range (want 0 for auto or a positive count)", f.Shards)
	}
	if d.Chart {
		if err := atLeast1("buckets", f.Buckets); err != nil {
			return err
		}
		return atLeast1("width", f.Width)
	}
	return nil
}

func atLeast1(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s %d: need at least 1", name, v)
	}
	return nil
}

// AdaptConfig is the policy configuration -adapt selects: defaults when
// set, nil (every knob fixed) otherwise.
func (f *Flags) AdaptConfig() *policy.Config {
	if f.Adapt {
		return &policy.Config{}
	}
	return nil
}

// StartLive starts the -live sampler over tracer, printing one progress
// line per interval to w. It returns nil — which Stop accepts — when -live
// is off.
func (f *Flags) StartLive(tracer *obs.Tracer, w io.Writer) *obs.Sampler {
	if f.Live <= 0 {
		return nil
	}
	s := obs.NewSampler(tracer)
	s.OnSample(func(st obs.LiveStats) { fmt.Fprintln(w, st.Line()) })
	s.Start(f.Live)
	return s
}

// Finish is the traced run's epilogue: the merged timeline on w under
// -timeline, then the Chrome trace file under -trace, announced on w.
func (f *Flags) Finish(w io.Writer, tracer *obs.Tracer) error {
	if f.Timeline {
		if err := obs.WriteTimeline(w, tracer); err != nil {
			return err
		}
	}
	if f.TraceOut != "" {
		if err := obs.WriteChromeTraceFile(f.TraceOut, tracer); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s%s\n", f.TraceOut, f.Note)
	}
	return nil
}
