package main

import (
	"fmt"
	"math"
	"time"

	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/tree"
	"latencyhide/internal/verify"
)

// sizes are the workloads' input sizes; the self-test runs them tiny.
type sizes struct {
	largeHosts, largeSteps int
	obsHosts, obsSteps     int
	soakScenarios          int
}

// fullSizes make a run-large op ~2.6M pebbles and a run-observed op ~0.5M
// pebbles and ~0.8M events. A verify-soak pass is 2000 scenarios: scenarios
// differ widely in cost, and with fewer the seed-to-seed spread of the
// pass's median and mean slowdown exceeds the benchmark's bounds.
var fullSizes = sizes{largeHosts: 2048, largeSteps: 160, obsHosts: 1024, obsSteps: 64, soakScenarios: 2000}

var workloadNames = []string{"run-large", "run-observed", "verify-soak"}

// fingerprint is an op's simulated outcome. It depends only on the op's
// input, so every op on the same input must reproduce it exactly.
type fingerprint struct {
	HostSteps, Pebbles, Messages, Hops, Delivered int64
	Stalls                                        obs.StallBreakdown
	Events, Relations                             int
}

func simFingerprint(r *sim.Result) fingerprint {
	return fingerprint{HostSteps: r.HostSteps, Pebbles: r.PebblesComputed,
		Messages: r.Messages, Hops: r.MessageHops, Delivered: r.DeliveredValues}
}

// outcome is what one op produced, plus what the traced pass's extra calls
// need to repeat work on the same input.
type outcome struct {
	setup, op time.Duration
	fp        fingerprint
	pebbles   int64   // pebbles of the op's run (verify-soak: the scenario's sequential run)
	slowdown  float64 // simulated host steps / guest steps of that run

	cfg     sim.Config
	res     *sim.Result
	simWall time.Duration
	events  []obs.Event
	reg     *telemetry.Registry
	sc      *verify.Scenario
}

// bench is one workload. An op is set-up plus the measured call on input i;
// split makes the traced pass's extra calls on the same input, so layers one
// public call fuses can be timed apart. tr and l are nil on the untraced pass.
type bench struct {
	name string
	// inputs is how many distinct inputs the ops cycle through: the run-*
	// workloads repeat one input, verify-soak a batch of scenarios.
	inputs int
	op     func(i int, tr *tracer, l layers) (*outcome, error)
	split  func(o *outcome, tr *tracer, l layers) error
}

func newBench(name string, seed int64, sz sizes) (*bench, error) {
	switch name {
	case "run-large":
		return runBench(name, sz.largeHosts, sz.largeSteps, seed, false), nil
	case "run-observed":
		return runBench(name, sz.obsHosts, sz.obsSteps, seed, true), nil
	case "verify-soak":
		return soakBench(uint64(seed), sz.soakScenarios)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// layers accumulates the traced pass's per-layer counts. A nil layers
// ignores writes.
type layers map[string]float64

func (l layers) add(k string, v float64) {
	if l != nil {
		l[k] += v
	}
}

func (l layers) max(k string, v float64) {
	if l != nil && v > l[k] {
		l[k] = v
	}
}

// buildRun is the set-up of `latencysim run`: a random NOW, its dilation-3
// line embedding, the interval tree with c=4 checked against its lemmas, and
// the two-level assignment with beta=2 and sqrtD=round(sqrt(d_ave)).
func buildRun(hosts, steps int, seed int64, tr *tracer, l layers) (sim.Config, error) {
	s := tr.begin("network.gen")
	g := network.RandomNOW(hosts, 4, network.ExpDelay{Mean: 3}, seed)
	tr.end(s)
	s = tr.begin("embedding.embed")
	line, err := embedding.Embed(g, 0)
	tr.end(s)
	if err != nil {
		return sim.Config{}, err
	}
	s = tr.begin("tree.build")
	t := tree.Build(line.Delays, 4)
	err = t.CheckLemmas()
	tr.end(s)
	if err != nil {
		return sim.Config{}, err
	}
	s = tr.begin("assign.build")
	a, err := assign.TwoLevel(t, 2, max(1, int(math.Round(math.Sqrt(t.Dave)))))
	tr.end(s)
	if err != nil {
		return sim.Config{}, err
	}
	l.max("embedding.dilation", float64(line.Dilation))
	l.add("tree.live_procs", float64(t.LiveCount()))
	assignFacts(a, l)
	return sim.Config{
		Delays: line.Delays,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: steps, Seed: seed},
		Assign: a,
	}, nil
}

// runBench is `latencysim run` from a generated host to a verified result:
// the sequential engine with Check (run-large), or the observed path of
// `run -manifest-out` / `trace` — two workers, recorder and telemetry on,
// then stall attribution and the critical path (run-observed).
func runBench(name string, hosts, steps int, seed int64, observed bool) *bench {
	b := &bench{name: name, inputs: 1}
	b.op = func(_ int, tr *tracer, l layers) (*outcome, error) {
		o := &outcome{}
		t0 := time.Now()
		s := tr.begin("setup")
		cfg, err := buildRun(hosts, steps, seed, tr, l)
		tr.end(s)
		o.setup = time.Since(t0)
		if err != nil {
			return nil, err
		}
		cfg.Check = true
		var rec *obs.Buffer
		call := "sim.run_checked"
		if observed {
			rec, o.reg = obs.NewBuffer(), telemetry.NewRegistry()
			cfg.Workers, cfg.Recorder, cfg.Telemetry = 2, rec, o.reg
			call = "sim.run_observed"
		}
		t1 := time.Now()
		s = tr.begin(call)
		o.res, err = sim.Run(cfg)
		tr.end(s)
		o.simWall = time.Since(t1)
		if err != nil {
			return nil, err
		}
		o.fp = simFingerprint(o.res)
		if observed {
			o.events = rec.Events()
			o.fp.Stalls, err = analyze(o.events, cfg.ObsInfo(o.res), tr, l)
		}
		o.op = time.Since(t1)
		if err != nil {
			return nil, err
		}
		if !o.res.Checked {
			return nil, fmt.Errorf("run was not checked against the reference executor")
		}
		o.cfg, o.pebbles, o.slowdown = cfg, o.res.PebblesComputed, o.res.Slowdown
		return o, nil
	}
	b.split = func(o *outcome, tr *tracer, l layers) error {
		if observed {
			// Recorder off next to recorder on: obs.record_s.
			c := o.cfg
			c.Recorder, c.Telemetry = nil, telemetry.NewRegistry()
			s := tr.begin("sim.run_unrecorded")
			r, err := sim.Run(c)
			tr.end(s)
			if err := sameRun("unrecorded", o, r, err, true); err != nil {
				return err
			}
			chunkFacts(o.res, o.simWall, l)
			telFacts(o.reg, l)
		} else {
			if err := parallelRun(o, 2, false, tr, l); err != nil {
				return err
			}
		}
		if err := plainRun(o, tr, l); err != nil {
			return err
		}
		return reference(o.cfg.Guest, tr)
	}
	return b
}

// soakBench is the verify soak: scenario i of the batch is generated,
// built, and checked by verify.CheckScenario (oracle, both engines and every
// metamorphic relation it admits).
func soakBench(seed uint64, n int) (*bench, error) {
	// The sequential run of each scenario gives its slowdown and pebbles;
	// it is made once here, before anything is timed.
	plain := make([]*sim.Result, n)
	for i := range plain {
		cfg, err := verify.Generate(seed, i).Build()
		if err != nil {
			return nil, err
		}
		if plain[i], err = sim.Run(*cfg); err != nil {
			return nil, err
		}
	}
	b := &bench{name: "verify-soak", inputs: n}
	b.op = func(i int, tr *tracer, l layers) (*outcome, error) {
		o := &outcome{}
		t0 := time.Now()
		s := tr.begin("setup")
		g := tr.begin("verify.generate")
		o.sc = verify.Generate(seed, i)
		tr.end(g)
		g = tr.begin("verify.build")
		cfg, err := o.sc.Build()
		tr.end(g)
		tr.end(s)
		o.setup = time.Since(t0)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		s = tr.begin("verify.check_scenario")
		rep, err := verify.CheckScenario(o.sc)
		tr.end(s)
		o.op = time.Since(t1)
		if err != nil {
			return nil, err
		}
		l.add("verify.violations", float64(len(rep.Violations)))
		if len(rep.Violations) > 0 {
			return nil, fmt.Errorf("scenario %s: %v", o.sc, rep.Violations[0])
		}
		l.add("verify.events", float64(rep.Events))
		l.add("verify.relations", float64(len(rep.Relations)))
		o.cfg, o.res = *cfg, plain[i]
		o.fp = fingerprint{Events: rep.Events, Relations: len(rep.Relations)}
		o.pebbles, o.slowdown = plain[i].PebblesComputed, plain[i].Slowdown
		return o, nil
	}
	b.split = func(o *outcome, tr *tracer, l layers) error {
		s := tr.begin("assign.build")
		a, err := o.sc.Assignment(o.cfg.Guest.Graph.NumNodes())
		tr.end(s)
		if err != nil {
			return err
		}
		assignFacts(a, l)
		// The sequential recorded run and its oracle, as CheckScenario makes them.
		c := o.cfg
		c.Check = true
		rec := obs.NewBuffer()
		c.Recorder = rec
		s = tr.begin("sim.run_recorded")
		r, err := sim.Run(c)
		tr.end(s)
		if err := sameRun("recorded", o, r, err, true); err != nil {
			return err
		}
		s = tr.begin("verify.oracle")
		vs := verify.CheckRun(&c, r, rec.Events())
		tr.end(s)
		l.add("verify.violations", float64(len(vs)))
		if len(vs) > 0 {
			return fmt.Errorf("scenario %s: oracle: %v", o.sc, vs[0])
		}
		if _, err := analyze(rec.Events(), c.ObsInfo(r), tr, l); err != nil {
			return err
		}
		// Recorder off next to recorder on: obs.record_s.
		c.Recorder = nil
		s = tr.begin("sim.run_unrecorded")
		r, err = sim.Run(c)
		tr.end(s)
		if err := sameRun("unrecorded", o, r, err, true); err != nil {
			return err
		}
		if err := parallelRun(o, o.sc.Workers, true, tr, l); err != nil {
			return err
		}
		if err := plainRun(o, tr, l); err != nil {
			return err
		}
		return reference(o.cfg.Guest, tr)
	}
	return b, nil
}

// sameRun checks that an extra run on the op's input reproduced the op's
// simulated aggregates.
func sameRun(what string, o *outcome, r *sim.Result, err error, checked bool) error {
	if err != nil {
		return fmt.Errorf("%s run: %w", what, err)
	}
	if a, b := simFingerprint(o.res), simFingerprint(r); a != b {
		return fmt.Errorf("%s run %+v differs from %+v", what, b, a)
	}
	if checked && !r.Checked {
		return fmt.Errorf("%s run was not checked against the reference executor", what)
	}
	return nil
}

// plainRun is the sequential engine alone, nothing attached and no check:
// the sim layer's cost and counts.
func plainRun(o *outcome, tr *tracer, l layers) error {
	c := o.cfg
	c.Workers, c.Check, c.Recorder, c.Telemetry = 0, false, nil, nil
	s := tr.begin("sim.run")
	r, err := sim.Run(c)
	tr.end(s)
	if err := sameRun("plain", o, r, err, false); err != nil {
		return err
	}
	l.add("sim.pebbles", float64(r.PebblesComputed))
	l.add("sim.guest_work", float64(r.GuestWork))
	l.add("sim.messages", float64(r.Messages))
	l.add("sim.hops", float64(r.MessageHops))
	l.add("sim.delivered", float64(r.DeliveredValues))
	l.add("sim.host_steps", float64(r.HostSteps))
	l.max("sim.max_queue_depth", float64(r.MaxQueueDepth))
	return nil
}

// parallelRun is the parallel engine with telemetry on the op's input; it
// must reproduce the sequential aggregates.
func parallelRun(o *outcome, workers int, check bool, tr *tracer, l layers) error {
	c := o.cfg
	c.Workers, c.Check, c.Recorder, c.Telemetry = workers, check, nil, telemetry.NewRegistry()
	t0 := time.Now()
	s := tr.begin("sim.run_parallel")
	r, err := sim.Run(c)
	tr.end(s)
	wall := time.Since(t0)
	if err := sameRun("parallel", o, r, err, check); err != nil {
		return err
	}
	chunkFacts(r, wall, l)
	telFacts(c.Telemetry, l)
	return nil
}

func reference(spec guest.Spec, tr *tracer) error {
	s := tr.begin("guest.reference")
	_, err := guest.RunDigestParallel(spec, 0)
	tr.end(s)
	return err
}

// analyze is the observation path's teardown: stall attribution and the
// critical path. It checks that both tile the run exactly.
func analyze(events []obs.Event, info obs.RunInfo, tr *tracer, l layers) (obs.StallBreakdown, error) {
	s := tr.begin("obs.analyze")
	a := obs.Analyze(events, info)
	tr.end(s)
	s = tr.begin("obs.stalls")
	st := a.Stalls()
	tr.end(s)
	s = tr.begin("obs.critpath")
	cp := a.CriticalPath()
	tr.end(s)
	if st.Busy+st.Idle+st.Dependency+st.Bandwidth+st.Fault != st.ProcSteps ||
		st.ProcSteps != int64(info.HostN)*info.HostSteps {
		return st, fmt.Errorf("stall attribution %+v does not tile %d procs x %d steps", st, info.HostN, info.HostSteps)
	}
	if cp.Compute+cp.Transit+cp.Queue+cp.Wait != cp.Length {
		return st, fmt.Errorf("critical path %d does not tile its parts", cp.Length)
	}
	l.add("obs.events", float64(len(events)))
	l.add("obs.stall.busy", float64(st.Busy))
	l.add("obs.stall.dependency", float64(st.Dependency))
	l.add("obs.stall.bandwidth", float64(st.Bandwidth))
	l.add("obs.stall.idle", float64(st.Idle))
	return st, nil
}

func assignFacts(a *assign.Assignment, l layers) {
	l.add("assign.columns", float64(a.Columns))
	l.add("assign.load", float64(a.Load()))
	l.max("assign.max_copies", float64(a.MaxCopies()))
}

// chunkFacts reads a parallel run's per-chunk gauges. wall is the run's
// wall time, so blocked time can be taken as a share of chunk time.
func chunkFacts(r *sim.Result, wall time.Duration, l layers) {
	if len(r.Chunks) == 0 {
		return
	}
	var blocked time.Duration
	var maxPebbles, sumPebbles int64
	for _, c := range r.Chunks {
		blocked += c.Blocked
		l.add("sim.chunk.flushes", float64(c.Flushes))
		l.add("sim.chunk.batched_msgs", float64(c.BatchedMsgs))
		maxPebbles = max(maxPebbles, c.Pebbles)
		sumPebbles += c.Pebbles
	}
	l.add("sim.chunk.blocked_ns", float64(blocked))
	l.add("sim.chunk.wall_ns", float64(wall)*float64(len(r.Chunks)))
	l.add("sim.chunk.runs", 1)
	if sumPebbles > 0 {
		l.add("sim.chunk.imbalance_sum", float64(maxPebbles)*float64(len(r.Chunks))/float64(sumPebbles))
	}
}

// telCounters and telGauges are the engine telemetry the traced pass keeps:
// counters are summed over ops, high-water gauges maxed.
var (
	telCounters = []string{"cal_due_events", "waiter_pool_grows", "know_ring_grows", "know_ring_shrinks",
		"boundary_flushes", "worker_parks", "ring_full_stalls"}
	telGauges = []string{"know_live_peak", "route_bytes", "know_ring_bytes_peak"}
)

func telFacts(reg *telemetry.Registry, l layers) {
	snap := reg.Snapshot()
	for _, n := range telCounters {
		l.add("sim.tel."+n, float64(snap.Counter(n)))
	}
	for _, n := range telGauges {
		l.max("sim.tel."+n, float64(snap.Gauge(n)))
	}
}
