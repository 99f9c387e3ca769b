// Command latencysim is the CLI for the latencyhide library: it inspects
// host topologies, runs and observes single OVERLAP simulations, sweeps
// parameters and regenerates the paper experiments.
//
// Usage:
//
//	latencysim topo   -host mesh -n 256 [-delay exp -mean 3] [-tree] [-o host.json]
//	latencysim run    -host random -n 256 -variant twolevel -steps 64 -check [-trace] [-profile cpu.pprof]
//	                  [-links 8] [-heatmap] [-trace-out t.json] [-summary s.json] [-csv links.csv]
//	latencysim sweep  -host line -from 128 -to 2048 -csv
//	latencysim guest  -guest butterfly -gn 5 -host random -layout auto
//	latencysim plan   -host @host.json
//	latencysim lower  -host h2 -n 1024 [-path]
//	latencysim verify -seed 1 -n 200
//	latencysim exp    [-scale full] [-md] [-only E3] [-csvdir experiments-csv] [-j 4]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"latencyhide/internal/adapt"
	"latencyhide/internal/embedding"
	"latencyhide/internal/expt"
	"latencyhide/internal/fault"
	"latencyhide/internal/fleet"
	"latencyhide/internal/metrics"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/overlap"
	"latencyhide/internal/sim"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/tree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "topo":
		err = cmdTopo(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "exp", "experiments":
		err = cmdExp(os.Args[2:])
	case "lower":
		err = cmdLower(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "guest":
		err = cmdGuest(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "twin":
		err = cmdTwin(os.Args[2:])
	case "manifest":
		err = cmdManifest(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "latencysim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "latencysim: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `latencysim <command> [flags]

commands:
  topo    describe a host topology and its dilation-3 line embedding
  run     run one OVERLAP simulation and print measurements; -links N, -heatmap,
          -trace-out, -summary and -csv add stall causes, critical path, link
          gauges and a Chrome trace
  sweep   sweep host size and print a slowdown table (or CSV)
  guest   simulate a tree/hypercube/butterfly/array guest via a 1-D layout
  plan    analyse a host and recommend OVERLAP parameters
  lower   certify the Theorem 9 / Theorem 10 lower bounds on H1 / H2
  verify  soak randomized scenarios through the invariant oracle and metamorphic relations
  twin    score measured slowdowns against the analytical theorem predictors (-report | -fit)
  exp     regenerate the paper experiments (E1..E19)
  manifest  inspect or validate a run manifest written with -manifest-out

sweep also runs in fleet mode (-fleet N [-shards K -shard I] [-fleet-out s.jsonl]):
thousands of generated scenarios sharded across worker processes into
resumable JSONL stores that "twin -report -store" joins and scores.

run, sweep, exp and verify accept -manifest-out <file.json> (machine-readable
run record: config hash, engine metrics, memory series, bytes/pebble) and
-live (refreshing progress line on stderr).`)
}

// hostFlags builds a host network from common flags.
type hostFlags struct {
	kind  *string
	n     *int
	deg   *int
	delay *string
	mean  *float64
	far   *int
	p     *float64
	seed  *int64
}

func addHostFlags(fs *flag.FlagSet) *hostFlags {
	return &hostFlags{
		kind:  fs.String("host", "line", "topology: line|ring|mesh|torus|hypercube|btree|random|ccc|h1|h2|cliquechain, or @file.json"),
		n:     fs.Int("n", 256, "approximate workstation count"),
		deg:   fs.Int("deg", 4, "max degree for random hosts"),
		delay: fs.String("delay", "bimodal", "delay distribution: const|uniform|bimodal|pareto|exp"),
		mean:  fs.Float64("mean", 4, "mean for exp/const delays"),
		far:   fs.Int("far", 64, "far delay for bimodal"),
		p:     fs.Float64("p", 0.02, "far-link probability for bimodal"),
		seed:  fs.Int64("seed", 1, "topology seed"),
	}
}

func (h *hostFlags) source() network.DelaySource {
	switch *h.delay {
	case "const":
		return network.ConstDelay(int(*h.mean))
	case "uniform":
		return network.UniformDelay{Lo: 1, Hi: int(2**h.mean - 1)}
	case "pareto":
		return network.ParetoDelay{Alpha: 1.2, Scale: *h.mean - 1, Cap: 100 * *h.n}
	case "exp":
		return network.ExpDelay{Mean: *h.mean}
	default:
		return network.BimodalDelay{Near: 1, Far: *h.far, P: *h.p}
	}
}

func (h *hostFlags) build() (*network.Network, error) {
	if strings.HasPrefix(*h.kind, "@") {
		f, err := os.Open((*h.kind)[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return network.ReadJSON(f)
	}
	n, seed, src := *h.n, *h.seed, h.source()
	switch *h.kind {
	case "line":
		return network.Line(n, src, seed), nil
	case "ring":
		return network.Ring(n, src, seed), nil
	case "mesh":
		s := network.ISqrt(n)
		return network.Mesh2D(s, s, src, seed), nil
	case "torus":
		s := network.ISqrt(n)
		return network.Torus2D(s, s, src, seed), nil
	case "hypercube":
		return network.Hypercube(network.Log2Floor(n), src, seed), nil
	case "btree":
		h := network.Log2Floor(n+1) - 1
		return network.CompleteBinaryTree(h, src, seed), nil
	case "random":
		return network.RandomNOW(n, *h.deg, src, seed), nil
	case "ccc":
		return network.CCC(network.Log2Floor(max(n/3, 8)), src, seed), nil
	case "h1":
		return network.H1(n), nil
	case "h2":
		return network.H2(n).Net, nil
	case "cliquechain":
		return network.CliqueChain(network.ISqrt(n)), nil
	default:
		return nil, fmt.Errorf("unknown host kind %q", *h.kind)
	}
}

func cmdTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	hf := addHostFlags(fs)
	out := fs.String("o", "", "also write the topology as JSON to this file")
	showTree := fs.Bool("tree", false, "render the interval tree over the embedded line")
	fs.Parse(args)
	g, err := hf.build()
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	s := g.Stats()
	fmt.Printf("%s\n", g)
	fmt.Printf("  nodes=%d links=%d connected=%v\n", s.Nodes, s.Links, s.Connected)
	fmt.Printf("  d_ave=%.3f d_max=%d d_min=%d max_degree=%d\n", s.AvgDelay, s.MaxDelay, s.MinDelay, s.MaxDegree)
	line, err := embedding.Embed(g, 0)
	if err != nil {
		return err
	}
	es := line.Stats(g)
	fmt.Printf("  line embedding: dilation=%d line_d_ave=%.3f line_d_max=%d inflation=%.2fx\n",
		es.Dilation, es.LineAvgDelay, es.LineMaxDelay, es.Inflation)
	if *showTree {
		tr := tree.Build(line.Delays, 4)
		if err := tr.CheckLemmas(); err != nil {
			return err
		}
		tr.Render(os.Stdout, 72)
	}
	return nil
}

// validateRunFlags rejects flag combinations that would otherwise surface as
// confusing mid-run failures: negative worker counts, output paths in
// directories that do not exist, malformed fault or adapt specs, and an
// adaptive policy that can never fire (mode=fault gates activation on
// injected-fault forensics, so it needs a fault plan to read). It returns
// the parsed fault plan and adapt policy (nil when the specs are empty).
func validateRunFlags(workers int, faultsSpec, adaptSpec string, outPaths ...string) (*fault.Plan, *adapt.Policy, error) {
	if workers < 0 {
		return nil, nil, fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	for _, p := range outPaths {
		if err := checkOutPath(p); err != nil {
			return nil, nil, err
		}
	}
	var plan *fault.Plan
	if faultsSpec != "" {
		var err error
		plan, err = fault.Parse(faultsSpec)
		if err != nil {
			return nil, nil, fmt.Errorf("-faults: %v", err)
		}
	}
	var pol *adapt.Policy
	if adaptSpec != "" {
		var err error
		pol, err = adapt.Parse(adaptSpec)
		if err != nil {
			return nil, nil, fmt.Errorf("-adapt: %v", err)
		}
		if pol.RequireFault && !plan.Enabled() {
			return nil, nil, fmt.Errorf("-adapt: mode=fault requires a -faults plan to correlate stalls against (use mode=any for fault-free adaptation)")
		}
	}
	return plan, pol, nil
}

// checkOutPath rejects an output file whose parent directory is missing or
// is not a directory, so a bad path fails before the run rather than after
// it. An empty path (output not requested) passes.
func checkOutPath(path string) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	if fi, err := os.Stat(dir); err != nil {
		return fmt.Errorf("output directory %q does not exist", dir)
	} else if !fi.IsDir() {
		return fmt.Errorf("output path parent %q is not a directory", dir)
	}
	return nil
}

func parseVariant(s string) (overlap.Variant, error) {
	switch strings.ToLower(s) {
	case "loadone", "load-one", "load1":
		return overlap.LoadOne, nil
	case "workefficient", "work-efficient", "we":
		return overlap.WorkEfficient, nil
	case "twolevel", "two-level", "2l":
		return overlap.TwoLevel, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (loadone|workefficient|twolevel)", s)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	hf := addHostFlags(fs)
	variant := fs.String("variant", "twolevel", "overlap variant: loadone|workefficient|twolevel")
	steps := fs.Int("steps", 64, "guest steps")
	beta := fs.Int("beta", 0, "database block size (0 = default)")
	bw := fs.Int("bw", 0, "link bandwidth in pebbles/step (0 = log n)")
	workers := fs.Int("workers", 0, "parallel engine chunks (0 = sequential)")
	check := fs.Bool("check", false, "verify replica digests against the reference executor")
	seed := fs.Int64("guestseed", 7, "guest computation seed")
	trace := fs.Bool("trace", false, "print a utilization timeline")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file")
	summary := fs.String("summary", "", "write the JSON run summary to this file")
	csvPath := fs.String("csv", "", "write every directed link's gauges as CSV to this file")
	heatmap := fs.Bool("heatmap", false, "print the per-workstation compute heatmap")
	links := fs.Int("links", 0, "print the stall-cause, critical-path and busiest-N-link tables (0 = off)")
	profile := fs.String("profile", "", "write a CPU pprof profile of the run to this file")
	faults := fs.String("faults", "", "deterministic fault plan, e.g. '7:outage=0.1x8;crash=3@40' (see DESIGN.md)")
	adaptSpec := fs.String("adapt", "", "adaptive replication policy, e.g. 'epoch=64,thresh=0.35,extra=1,budget=16,mode=fault' (see DESIGN.md)")
	manifestOut, liveFlag := manifestFlags(fs)
	fs.Parse(args)

	if *links < 0 {
		return fmt.Errorf("-links must be >= 0, got %d", *links)
	}
	plan, pol, err := validateRunFlags(*workers, *faults, *adaptSpec, *traceOut, *summary, *csvPath)
	if err != nil {
		return err
	}
	mr, err := startMRun("run", args, *manifestOut, *liveFlag)
	if err != nil {
		return err
	}
	if mr.active() {
		// A manifest promises boundary telemetry (ring occupancy, published
		// clock lag), which only the parallel engine produces; default to two
		// chunks unless the user picked an engine explicitly.
		workersSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				workersSet = true
			}
		})
		if !workersSet {
			*workers = 2
			fmt.Println("manifest: defaulting to -workers 2 so boundary telemetry is captured (pass -workers to override)")
		}
	}
	g, err := hf.build()
	if err != nil {
		return err
	}
	v, err := parseVariant(*variant)
	if err != nil {
		return err
	}
	opts := overlap.Options{
		Variant: v, Steps: *steps, Beta: *beta, Seed: *seed,
		Bandwidth: *bw, Workers: *workers, Check: *check, Faults: plan,
		Adapt: pol, Telemetry: mr.registry(),
	}
	if *trace {
		// Collect the timeline during the one and only run; printTrace
		// coarsens it to a sparkline afterwards.
		opts.TraceWindow = 8
	}
	var rec *obs.Buffer
	if *traceOut != "" || *summary != "" || *csvPath != "" || *heatmap || *links > 0 || mr.active() {
		// Every observation, the manifest's stall tiling included, reads
		// one analysis of this one recorded stream.
		rec = obs.NewBuffer()
		opts.Recorder = rec
	}
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("profile: wrote %s\n", *profile)
		}()
	}
	mr.startSampling()
	mr.startLive(*liveFlag, mr.engineStatus)
	out, err := overlap.Simulate(g, opts)
	mr.stopLive()
	if err != nil {
		return err
	}
	fmt.Printf("host: %s\n", g)
	fmt.Printf("embedding: dilation=%d line_d_ave=%.3f\n", out.Dilation, out.Dave)
	fmt.Printf("tree: live=%d/%d killed=(%d,%d) guest_units=%d\n",
		out.LiveProcs, out.HostN, out.KilledStage1, out.KilledStage2, out.GuestUnits)
	fmt.Printf("assignment: variant=%s guest_cols=%d load=%d copies<=%d redundancy=%.2f\n",
		out.Variant, out.GuestCols, out.Load, out.MaxCopies, out.Redundancy)
	if plan != nil {
		fmt.Printf("faults: %s\n", plan)
	}
	if pol != nil {
		fmt.Printf("adapt: %s activations=%d\n", pol, out.Sim.AdaptActivations)
	}
	fmt.Printf("run: guest_steps=%d host_steps=%d slowdown=%.2f (bound ~ %.0f)\n",
		out.Sim.GuestSteps, out.Sim.HostSteps, out.Sim.Slowdown, out.PredictedSlowdown)
	if sched, err := overlap.BuildSchedule(out.Tree, 1); err == nil {
		fmt.Printf("schedule: Theorem 1 timetable bounds one round of %d steps by %d host steps (slowdown %.0f)\n",
			sched.RoundSteps(), sched.RoundBound(), sched.SlowdownBound())
	}
	fmt.Printf("work: pebbles=%d redundancy=%.2f efficiency=%.2f msgs=%d hops=%d\n",
		out.Sim.PebblesComputed, out.Sim.Redundancy, out.Efficiency(), out.Sim.Messages, out.Sim.MessageHops)
	if out.Sim.Checked {
		fmt.Println("check: all database replicas match the sequential reference executor")
	}
	if len(out.Sim.Chunks) > 0 {
		obs.ChunkTable(out.Sim.Chunks).Fprint(os.Stdout)
	}
	if *trace {
		if err := printTrace(out); err != nil {
			return err
		}
	}
	if rec != nil {
		a := obs.Analyze(rec.Events(), *out.ObsInfo)
		if *links > 0 {
			printObservation(a, *links)
		}
		if *heatmap {
			window := max(int(out.Sim.HostSteps/60), 1)
			fmt.Printf("\ncompute heatmap (window = %d host steps):\n", window)
			fmt.Print(obs.HeatmapString(a.Heatmap(window), 32))
		}
		if *traceOut != "" {
			if err := obs.WriteChromeTraceFile(*traceOut, a); err != nil {
				return err
			}
			fmt.Printf("trace-out: wrote %s (%d events; open in chrome://tracing or Perfetto)\n",
				*traceOut, rec.Len())
		}
		if *summary != "" {
			if err := writeSummary(*summary, a.Summarize()); err != nil {
				return err
			}
			fmt.Printf("summary: wrote %s\n", *summary)
		}
		if *csvPath != "" {
			if err := obs.LinkTable(a.LinkGauges()).CSVFile(*csvPath); err != nil {
				return err
			}
			fmt.Printf("csv: wrote %s\n", *csvPath)
		}
		if mr != nil {
			s := a.Stalls()
			mr.m.Stalls = &telemetry.StallSummary{
				ProcSteps: s.ProcSteps, Busy: s.Busy, Idle: s.Idle,
				Dependency: s.Dependency, Bandwidth: s.Bandwidth, Fault: s.Fault,
			}
		}
	}
	if mr != nil {
		mr.m.Scenario = fmt.Sprintf("%s variant=%s steps=%d", g, out.Variant, *steps)
		mr.m.Engine = "sequential"
		if len(out.Sim.Chunks) > 1 {
			mr.m.Engine = "parallel"
		}
		mr.m.Workers = *workers
		mr.m.GuestSteps = out.Sim.GuestSteps
		mr.m.HostSteps = out.Sim.HostSteps
		mr.m.Slowdown = out.Sim.Slowdown
		mr.m.Pebbles = out.Sim.PebblesComputed
	}
	return mr.finish()
}

// printObservation prints where the run's host steps went: the stall-cause
// tiling, the critical-path decomposition and the n busiest directed links.
func printObservation(a *obs.Analysis, n int) {
	fmt.Println()
	obs.StallTable(a.Stalls()).Fprint(os.Stdout)
	fmt.Println()
	obs.CritPathTable(a.CriticalPath()).Fprint(os.Stdout)
	fmt.Println()
	gauges := a.LinkGauges()
	busiest := append([]obs.LinkGauge(nil), gauges...)
	sort.Slice(busiest, func(i, j int) bool { return busiest[i].Injects > busiest[j].Injects })
	busiest = busiest[:min(n, len(busiest))]
	lt := obs.LinkTable(busiest)
	lt.Title = fmt.Sprintf("busiest %d of %d directed links", len(busiest), len(gauges))
	lt.Fprint(os.Stdout)
}

// writeSummary writes the JSON run summary to path.
func writeSummary(path string, s *obs.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coarsen sums groups of k adjacent counters.
func coarsen(xs []int64, k int) []int64 {
	if k <= 1 {
		return xs
	}
	out := make([]int64, 0, (len(xs)+k-1)/k)
	for i, x := range xs {
		if i%k == 0 {
			out = append(out, 0)
		}
		out[len(out)-1] += x
	}
	return out
}

// printTrace renders compute-utilization and traffic sparklines from the
// timeline the run already collected, coarsened to at most 60 buckets.
func printTrace(out *overlap.Outcome) error {
	tr := out.Sim.Trace
	if tr == nil {
		return fmt.Errorf("run collected no trace")
	}
	k := max((len(tr.Computes)+59)/60, 1)
	coarse := &sim.Trace{Window: k * tr.Window, Computes: coarsen(tr.Computes, k)}
	fmt.Printf("trace (window = %d host steps):\n", coarse.Window)
	fmt.Printf("  compute utilization  %s\n", spark(coarse.Utilization(out.LiveProcs)))
	hopsC := coarsen(tr.Hops, k)
	hops := make([]float64, len(hopsC))
	var hmax float64
	for i, h := range hopsC {
		hops[i] = float64(h)
		if hops[i] > hmax {
			hmax = hops[i]
		}
	}
	if hmax > 0 {
		for i := range hops {
			hops[i] /= hmax
		}
	}
	fmt.Printf("  link traffic (rel.)  %s\n", spark(hops))
	return nil
}

// spark renders values in [0,1] as a unicode sparkline.
func spark(vals []float64) string {
	ramp := []rune(" .:-=+*#%@")
	out := make([]rune, len(vals))
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out[i] = ramp[int(v*float64(len(ramp)-1)+0.5)]
	}
	return string(out)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	hf := addHostFlags(fs)
	variant := fs.String("variant", "twolevel", "overlap variant")
	steps := fs.Int("steps", 48, "guest steps")
	from := fs.Int("from", 128, "smallest n")
	to := fs.Int("to", 1024, "largest n")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	faults := fs.String("faults", "", "deterministic fault plan applied at every sweep point (see DESIGN.md)")
	adaptSpec := fs.String("adapt", "", "adaptive replication policy applied at every sweep point (see DESIGN.md)")
	fleetN := fs.Int("fleet", 0, "fleet mode: measure this many generated scenarios (plus the clique-chain ladder) into a resumable store instead of a host-size sweep")
	fleetSeed := fs.Uint64("fleet-seed", 1, "fleet scenario stream seed")
	shards := fs.Int("shards", 1, "fleet mode: total shard count")
	shard := fs.Int("shard", 0, "fleet mode: this worker's shard in [0,shards)")
	fleetOut := fs.String("fleet-out", "", "fleet mode: result store path (JSONL, default fleet-shard<shard>.jsonl)")
	fleetWorkers := fs.Int("workers", 4, "fleet mode: concurrent measurement workers")
	manifestOut, liveFlag := manifestFlags(fs)
	fs.Parse(args)

	if *fleetN > 0 {
		mr, err := startMRun("sweep", args, *manifestOut, *liveFlag)
		if err != nil {
			return err
		}
		p := fleet.Plan{Seed: *fleetSeed, N: *fleetN, Shards: *shards, Shard: *shard}
		return runFleetSweep(os.Stdout, p, *fleetOut, *fleetWorkers, mr, *liveFlag)
	}

	plan, pol, err := validateRunFlags(0, *faults, *adaptSpec)
	if err != nil {
		return err
	}
	v, err := parseVariant(*variant)
	if err != nil {
		return err
	}
	mr, err := startMRun("sweep", args, *manifestOut, *liveFlag)
	if err != nil {
		return err
	}
	var status struct {
		sync.Mutex
		line string
	}
	setStatus := func(format string, a ...any) {
		status.Lock()
		status.line = fmt.Sprintf(format, a...)
		status.Unlock()
	}
	mr.startSampling()
	mr.startLive(*liveFlag, func() string {
		status.Lock()
		defer status.Unlock()
		return status.line
	})
	t := metrics.NewTable(fmt.Sprintf("sweep %s host, variant %s", *hf.kind, v),
		"n", "d_ave", "d_max", "guest", "load", "slowdown", "efficiency")
	var xs, ys []float64
	for n := *from; n <= *to; n *= 2 {
		setStatus("sweep: n=%d (of %d..%d)", n, *from, *to)
		*hf.n = n
		g, err := hf.build()
		if err != nil {
			return err
		}
		pointStart := time.Now()
		out, err := overlap.Simulate(g, overlap.Options{
			Variant: v, Steps: *steps, Seed: 7, Faults: plan, Adapt: pol,
			Telemetry: mr.registry(),
		})
		if err != nil {
			return err
		}
		t.AddRow(n, out.Dave, out.Dmax, out.GuestCols, out.Load, out.Sim.Slowdown, out.Efficiency())
		xs = append(xs, float64(n))
		ys = append(ys, out.Sim.Slowdown)
		if mr != nil {
			mr.m.Sweep = append(mr.m.Sweep, telemetry.SweepPoint{
				N: n, Slowdown: out.Sim.Slowdown, Efficiency: out.Efficiency(),
				Pebbles:     out.Sim.PebblesComputed,
				WallSeconds: time.Since(pointStart).Seconds(),
			})
			mr.m.Pebbles += out.Sim.PebblesComputed
		}
	}
	mr.stopLive()
	t.AddNote("log-log slope of slowdown vs n: %.2f", metrics.LogLogSlope(xs, ys))
	if *csv {
		t.CSV(os.Stdout)
	} else {
		t.Fprint(os.Stdout)
	}
	if mr != nil {
		mr.m.Scenario = fmt.Sprintf("%s host %d..%d variant=%s steps=%d", *hf.kind, *from, *to, v, *steps)
	}
	return mr.finish()
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	scaleStr := fs.String("scale", "quick", "experiment scale: quick|full")
	md := fs.Bool("md", false, "emit markdown tables (a full run also prints the EXPERIMENTS-data.md header)")
	only := fs.String("only", "", "run a single experiment, e.g. E3")
	csvDir := fs.String("csvdir", "", "write each table as CSV into this directory instead of printing it")
	jobs := fs.Int("j", 0, "experiments to run concurrently (0 = GOMAXPROCS, 1 = sequential)")
	manifestOut, liveFlag := manifestFlags(fs)
	fs.Parse(args)

	scale, err := expt.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	mr, err := startMRun("exp", args, *manifestOut, *liveFlag)
	if err != nil {
		return err
	}
	mr.startSampling()
	if *only != "" || *csvDir != "" {
		exps := expt.All()
		scenario := fmt.Sprintf("all experiments scale=%s", *scaleStr)
		if *only != "" {
			e := expt.Get(strings.ToUpper(*only))
			if e == nil {
				return fmt.Errorf("unknown experiment %q", *only)
			}
			exps = []*expt.Experiment{e}
			scenario = fmt.Sprintf("experiment %s scale=%s", e.ID, *scaleStr)
		}
		for _, e := range exps {
			if *csvDir == "" {
				fmt.Printf("=== %s: %s (%s) ===\n\n", e.ID, e.Title, e.Paper)
			}
			start := time.Now()
			tables, err := e.Run(scale)
			wall := time.Since(start)
			switch {
			case err != nil:
				return fmt.Errorf("%s: %v", e.ID, err)
			case *csvDir != "":
				if err := writeCSVs(*csvDir, e.ID, tables); err != nil {
					return err
				}
			default:
				for _, t := range tables {
					if *md {
						t.Markdown(os.Stdout)
					} else {
						t.Fprint(os.Stdout)
						fmt.Println()
					}
				}
			}
			if mr != nil {
				mr.m.Experiments = append(mr.m.Experiments, telemetry.ExpTiming{ID: e.ID, WallSeconds: wall.Seconds()})
			}
		}
		if mr != nil {
			mr.m.Scenario = scenario
		}
		return mr.finish()
	}
	var status struct {
		sync.Mutex
		line string
	}
	mr.startLive(*liveFlag, func() string {
		status.Lock()
		defer status.Unlock()
		return status.line
	})
	// Render into a buffer while the live line owns the terminal; flush after.
	var buf bytes.Buffer
	out := io.Writer(os.Stdout)
	if mr != nil && mr.live != nil {
		out = &buf
	}
	if *md {
		fmt.Fprintf(out, "# Experiment data (%s scale)\n\n", *scaleStr)
		fmt.Fprintf(out, "Generated by `latencysim exp -scale %s -md`. See DESIGN.md for the per-experiment\n", *scaleStr)
		fmt.Fprintln(out, "index and EXPERIMENTS.md for the paper-vs-measured discussion.")
	}
	timings, runErr := expt.RunAllTimed(out, scale, *md, *jobs, func(done, total int, id string) {
		status.Lock()
		status.line = fmt.Sprintf("exp: %d/%d done (last %s)", done, total, id)
		status.Unlock()
	})
	mr.stopLive()
	if buf.Len() > 0 {
		os.Stdout.Write(buf.Bytes())
	}
	if runErr != nil {
		return runErr
	}
	if mr != nil {
		mr.m.Scenario = fmt.Sprintf("all experiments scale=%s", *scaleStr)
		for _, tm := range timings {
			mr.m.Experiments = append(mr.m.Experiments,
				telemetry.ExpTiming{ID: tm.ID, WallSeconds: tm.Wall.Seconds()})
		}
	}
	return mr.finish()
}

// writeCSVs writes an experiment's tables into dir as ID.csv, or ID-1.csv,
// ID-2.csv, … when it has several, and names each file on stdout.
func writeCSVs(dir, id string, tables []*metrics.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		name := id + ".csv"
		if len(tables) > 1 {
			name = fmt.Sprintf("%s-%d.csv", id, i+1)
		}
		if err := t.CSVFile(filepath.Join(dir, name)); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, name))
	}
	return nil
}
