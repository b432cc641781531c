// Command uts-dist runs the distributed-memory work-stealing search across
// real operating-system processes connected by TCP (package
// internal/cluster) — the genuinely distributed deployment of the paper's
// Section 3.3 algorithm.
//
// Convenience launcher (spawns ranks 1..N-1 as child processes of itself):
//
//	uts-dist -launch 4 -tree bench-small -chunk 8
//
// Manual deployment, one process per host/core:
//
//	uts-dist -rank 0 -ranks 4 -coord 10.0.0.1:7777 -tree bench-small   # on host A
//	uts-dist -rank 1 -ranks 4 -coord 10.0.0.1:7777 -tree bench-small \
//	         -bind 0.0.0.0:0 -advertise 10.0.0.2                      # on host B
//	...
//
// Fault injection (testing the failure paths; see cluster.ParseFaultSpec):
//
//	uts-dist -launch 4 -fault "rank=2,side=client,kind=cas,op=kill" -rpc-timeout 500ms
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/uts"
)

func main() {
	os.Exit(run())
}

// options carries every uts-dist setting through the launch paths: the
// shared flags (tree, -ranks, -chunk, -adapt, -seed, trace group) plus the
// transport's own.
type options struct {
	*cliflags.Flags
	coord        string
	bind         string
	advertise    string
	rpcTimeout   time.Duration
	rpcRetries   int
	statsTimeout time.Duration
	faultSpec    string
	metricsAddr  string
	metricsLing  time.Duration

	sp    *uts.Spec
	fault *cluster.FaultPlan
}

// config builds the cluster configuration for one rank from the options.
func (o *options) config(rank int, tracer *obs.Tracer) cluster.Config {
	return cluster.Config{
		Rank: rank, Ranks: o.PEs, Coord: o.coord,
		Bind: o.bind, Advertise: o.advertise,
		Spec: o.sp, Chunk: o.Chunk, Seed: o.Seed,
		RPCTimeout: o.rpcTimeout, RPCRetries: o.rpcRetries,
		StatsTimeout: o.statsTimeout, Fault: o.fault,
		MetricsLinger: o.metricsLing,
		Adapt:         o.AdaptConfig(), Tracer: tracer,
	}
}

func run() int {
	o := options{Flags: cliflags.Register(flag.CommandLine, cliflags.Defaults{
		Tree:  "bench-small",
		Width: "ranks", PEs: 1, WidthUsage: "total number of ranks",
		Chunk:         16,
		AdaptUsage:    "adapt k per rank at runtime from steal feedback (closed-loop, bounded around -chunk)",
		Seed:          true,
		Trace:         true,
		TraceUsage:    "write Chrome trace_event JSON per rank (rank 0 to the path, rank N to path.rankN)",
		TimelineUsage: "print rank 0's steal-protocol event timeline",
		HistUsage:     "record protocol events and fold rank 0's histograms into the summary",
	})}
	launch := flag.Int("launch", 0, "spawn this many ranks locally (rank 0 in-process, others as children)")
	rank := flag.Int("rank", 0, "this process's rank")
	flag.StringVar(&o.coord, "coord", "127.0.0.1:17717", "coordinator address (rank 0 listens, others dial)")
	flag.StringVar(&o.bind, "bind", "", "worker listen address (default 127.0.0.1:0; multi-host: 0.0.0.0:0 or :port)")
	flag.StringVar(&o.advertise, "advertise", "", "address peers dial this rank at (default the listener's; needed with a wildcard -bind)")
	flag.DurationVar(&o.rpcTimeout, "rpc-timeout", 0, "per-RPC deadline (default 5s)")
	flag.IntVar(&o.rpcRetries, "rpc-retries", 0, "retries for idempotent RPCs before a peer is declared dead (default 2)")
	flag.DurationVar(&o.statsTimeout, "stats-timeout", 0, "rank 0's bound on the end-of-run stats gather (default 30s)")
	flag.StringVar(&o.faultSpec, "fault", "", `fault-injection rules, e.g. "rank=2,side=client,kind=cas,op=kill" (see cluster.ParseFaultSpec)`)
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9100; rank 0 adds the cluster-wide rollup)")
	flag.DurationVar(&o.metricsLing, "metrics-linger", 0, "keep the metrics endpoint up this long after the search finishes (lets a final scrape land)")
	flag.Parse()

	if *launch > 0 {
		o.PEs = *launch
	}
	sp, _, tracer, err := o.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	o.sp = sp
	if err := o.resolveHosts(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if o.faultSpec != "" {
		plan, err := cluster.ParseFaultSpec(o.faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		plan.Seed = o.Seed
		o.fault = plan
	}

	if *launch > 0 {
		return launchLocal(&o, tracer)
	}

	cfg := o.config(*rank, tracer)
	srv, err := o.serveMetrics(&cfg, *rank)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res, err := cluster.Run(cfg)
	srv.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	o.TraceOut = rankTracePath(o.TraceOut, *rank)
	return o.report(res, tracer, "")
}

// report prints rank 0's summary (res is nil on every other rank, which
// prints nothing) and runs the trace epilogue: every rank writes its
// trace file, only rank 0 says so.
func (o *options) report(res *stats.Run, tracer *obs.Tracer, how string) int {
	w := io.Discard
	if res != nil {
		w = os.Stdout
		fmt.Printf("tree=%s ranks=%d chunk=%d%s\n", o.sp.String(), o.PEs, o.Chunk, how)
		fmt.Print(res.Summary())
	}
	if err := o.Finish(w, tracer); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// serveMetrics binds -metrics-addr before the rank runs, hands the run a
// registry to fill and prints the bound address — essential with port 0,
// where the scraper can't know the port in advance. No -metrics-addr, no
// registry and no server (nil, which Close accepts).
func (o *options) serveMetrics(cfg *cluster.Config, rank int) (*server, error) {
	if o.metricsAddr == "" {
		return nil, nil
	}
	cfg.Metrics = telemetry.NewRegistry()
	srv, err := newServer(o.metricsAddr, cfg.Metrics)
	if err != nil {
		return nil, fmt.Errorf("uts-dist: rank %d metrics listen on %q: %w", rank, o.metricsAddr, err)
	}
	fmt.Fprintf(os.Stderr, "rank %d metrics: http://%s/metrics\n", rank, srv.Addr())
	return srv, nil
}

// rankTracePath places rank 0's trace at the requested path and every
// other rank's alongside it with a .rankN suffix; no path, no trace, on
// any rank.
func rankTracePath(path string, rank int) string {
	if rank == 0 || path == "" {
		return path
	}
	return fmt.Sprintf("%s.rank%d", path, rank)
}

// childArgs rebuilds the flag list a spawned rank needs. The fault spec
// and the timeout knobs propagate (every rank of a run must share them);
// -bind and -advertise deliberately do not — children run on this same
// host, where a pinned port would collide, so they default to a
// kernel-assigned loopback port.
func (o *options) childArgs(rank int) []string {
	args := []string{
		"-rank", fmt.Sprint(rank),
		"-ranks", fmt.Sprint(o.PEs),
		"-coord", o.coord,
		"-tree", o.Tree,
		"-chunk", fmt.Sprint(o.Chunk),
		"-seed", fmt.Sprint(o.Seed),
	}
	if o.rpcTimeout != 0 {
		args = append(args, "-rpc-timeout", o.rpcTimeout.String())
	}
	if o.rpcRetries != 0 {
		args = append(args, "-rpc-retries", fmt.Sprint(o.rpcRetries))
	}
	if o.statsTimeout != 0 {
		args = append(args, "-stats-timeout", o.statsTimeout.String())
	}
	if o.Adapt {
		args = append(args, "-adapt")
	}
	if o.faultSpec != "" {
		args = append(args, "-fault", o.faultSpec)
	}
	if o.TraceOut != "" {
		args = append(args, "-trace", o.TraceOut)
	}
	if o.metricsAddr != "" {
		// Children share this host, so a pinned port would collide; each
		// child serves its own kernel-assigned loopback port instead. The
		// rollup still covers them: rank 0 polls every rank over the
		// cluster RPC plane, not over HTTP.
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	if o.metricsLing != 0 {
		args = append(args, "-metrics-linger", o.metricsLing.String())
	}
	return args
}

// launchLocal runs rank 0 in-process and spawns ranks 1..n-1 as child
// processes of this binary, all against the same coordinator address.
func launchLocal(o *options, tracer *obs.Tracer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := o.config(0, tracer)
	cfg.Bind, cfg.Advertise = "", "" // children share this host; let each rank pick its own port
	srv, err := o.serveMetrics(&cfg, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	children := make([]*exec.Cmd, 0, o.PEs-1)
	for r := 1; r < o.PEs; r++ {
		cmd := exec.Command(self, o.childArgs(r)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "spawn rank %d: %v\n", r, err)
			srv.Close()
			return 1
		}
		children = append(children, cmd)
	}

	res, err := cluster.Run(cfg)
	srv.Close()
	status := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		status = 1
	}
	for r, cmd := range children {
		if werr := cmd.Wait(); werr != nil {
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", r+1, werr)
			status = 1
		}
	}
	o.Note = " (plus .rankN files)"
	if o.report(res, tracer, " (local processes)") != 0 {
		status = 1
	}
	return status
}
