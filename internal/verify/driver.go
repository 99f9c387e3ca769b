package verify

import (
	"fmt"
	"io"
	"sort"

	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
)

// Report is the outcome of checking one scenario: how much evidence was
// examined and every invariant or metamorphic relation that broke.
type Report struct {
	Scenario *Scenario
	// Events is the sequential engine's canonical stream length.
	Events int
	// Relations lists the metamorphic relations this scenario exercised.
	Relations []string
	// Violations is empty for a clean scenario.
	Violations []Violation
}

// run executes one engine configuration, checked against the guest
// reference executor and optionally recording its stream. It sets Workers,
// Check and Recorder on its own copy of cfg, so no run inherits another
// run's engine or recorder.
func run(cfg sim.Config, workers int, record bool) (*sim.Result, []obs.Event, error) {
	cfg.Workers = workers
	cfg.Check = true
	cfg.Recorder = nil
	if record {
		cfg.Recorder = obs.NewBuffer()
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	if record {
		return res, cfg.Recorder.Events(), nil
	}
	return res, nil, nil
}

// aggregates is the schedule-level fingerprint two runs are compared by.
type aggregates struct {
	HostSteps                          int64
	Pebbles, Messages, Hops, Delivered int64
}

func fingerprint(r *sim.Result) aggregates {
	return aggregates{
		HostSteps: r.HostSteps, Pebbles: r.PebblesComputed,
		Messages: r.Messages, Hops: r.MessageHops, Delivered: r.DeliveredValues,
	}
}

// CheckScenario runs the scenario through the invariant oracle, both
// engines, and every metamorphic relation its parameters admit. The error
// return is infrastructural (a generated scenario failed to build or run at
// all); verification failures land in Report.Violations.
func CheckScenario(sc *Scenario) (*Report, error) {
	rep := &Report{Scenario: sc}
	fail := func(invariant, format string, args ...any) {
		rep.Violations = append(rep.Violations,
			Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	// Sequential reference run, oracle-checked. Check=true also verifies
	// every replica digest against the guest reference executor.
	cfg, err := sc.Build()
	if err != nil {
		return nil, fmt.Errorf("verify: scenario %q does not build: %w", sc, err)
	}
	seqRes, seqEvents, err := run(*cfg, 0, true)
	if err != nil {
		return nil, fmt.Errorf("verify: scenario %q sequential run: %w", sc, err)
	}
	rep.Events = len(seqEvents)
	rep.Violations = append(rep.Violations, CheckRun(cfg, seqRes, seqEvents)...)
	if sc.Adapt != nil {
		// CheckRun held the activation stream to the replication bound
		// (placement membership, per-column extra, budget, epoch alignment).
		rep.Relations = append(rep.Relations, "adaptive-replication-bound")
	}

	// Engine equivalence: the parallel engine must produce a bit-identical
	// stream and the same aggregates.
	rep.Relations = append(rep.Relations, "engine-equivalence")
	parRes, parEvents, err := run(*cfg, sc.Workers, true)
	if err != nil {
		return nil, fmt.Errorf("verify: scenario %q parallel run: %w", sc, err)
	}
	if a, b := fingerprint(seqRes), fingerprint(parRes); a != b {
		fail("engine-equivalence", "sequential %+v != parallel %+v", a, b)
	}
	if len(seqEvents) != len(parEvents) {
		fail("engine-equivalence", "sequential stream has %d events, parallel %d", len(seqEvents), len(parEvents))
	} else {
		for i := range seqEvents {
			if seqEvents[i] != parEvents[i] {
				fail("engine-equivalence", "streams diverge at event %d: %+v != %+v", i, seqEvents[i], parEvents[i])
				break
			}
		}
	}

	// Seed invariance: the schedule is value-independent, so changing the
	// guest seed (same delays, same assignment) moves no event counters.
	rep.Relations = append(rep.Relations, "seed-invariance")
	scfg := *cfg
	scfg.Guest.Seed = sc.Seed + 1
	seedRes, _, err := run(scfg, 0, false)
	if err != nil {
		return nil, fmt.Errorf("verify: scenario %q seed variant: %w", sc, err)
	}
	if a, b := fingerprint(seqRes), fingerprint(seedRes); a != b {
		fail("seed-invariance", "guest seed %d -> %d changed the schedule: %+v != %+v", sc.Seed, sc.Seed+1, a, b)
	}

	// Replication bound: replicating every column Rep times multiplies the
	// load by Rep, so host steps stay within the work-scaled bound of the
	// single-copy run. Fault-free only: a crashed Rep=1 run is uncomputable,
	// and probabilistic slowdowns/jitter compound over the longer replicated
	// run, voiding the work-scaling argument. Adaptive runs are out too:
	// activations add work the rep=1 baseline never pays.
	if sc.Rep > 1 && sc.Faults == nil && sc.Adapt == nil {
		rep.Relations = append(rep.Relations, "replication-bound")
		one := *sc
		one.Rep = 1
		ocfg, err := one.Build()
		if err != nil {
			return nil, err
		}
		oneRes, _, err := run(*ocfg, 0, false)
		if err != nil {
			return nil, fmt.Errorf("verify: scenario %q rep=1 variant: %w", sc, err)
		}
		// Work scales by the realised load ratio (not Rep: consecutive
		// replica blocks overlap on middle hosts, so a small line can load a
		// host by more than Rep), and each of the T guest rounds pays at most
		// one extra max-delay hop plus its compute slot per replica.
		dmax := 0
		for _, d := range cfg.Delays {
			if d > dmax {
				dmax = d
			}
		}
		factor := int64((seqRes.Load + oneRes.Load - 1) / oneRes.Load)
		if factor < 1 {
			factor = 1
		}
		bound := factor * (oneRes.HostSteps + int64(sc.Steps*(dmax+1)))
		if seqRes.HostSteps > bound {
			fail("replication-bound", "rep=%d took %d host steps > bound %d (rep=1 took %d)",
				sc.Rep, seqRes.HostSteps, bound, oneRes.HostSteps)
		}
	}

	// Outage monotonicity. The hard invariant is monotone-by-construction:
	// every window down under the base fractions stays down under doubled
	// fractions (the hash-threshold test is a superset relation) — checked
	// exactly over the run's whole span. End to end, greedy scheduling
	// admits Graham-style anomalies (delaying one message can reorder
	// computes and finish a hair earlier), so the schedule check allows one
	// guest round of slack — and only runs without heavy-tailed spikes
	// (shifted injection steps redraw per-step spike delays whose caps
	// dwarf the slack) and without adaptation (worse faults mean more
	// blame, more activations, and legitimately faster finishes). Jitter is
	// redrawn per (link, step, slot) exactly like spikes, so with jitter the
	// schedule check compares jitter-free twins of the base and doubled
	// plans: one extra run, and the outages stay the only difference. The
	// subset check is sim-free and runs on the real plan for every outage
	// plan.
	if sc.Faults != nil && len(sc.Faults.Outages) > 0 {
		rep.Relations = append(rep.Relations, "outage-monotone")
		plan := *sc.Faults
		plan.Outages = append([]fault.Outage(nil), sc.Faults.Outages...)
		for i := range plan.Outages {
			plan.Outages[i].Frac *= 2
			if plan.Outages[i].Frac > 1 {
				plan.Outages[i].Frac = 1
			}
		}
	subset:
		for link := 0; link < sc.HostN-1; link++ {
			for step := int64(1); step <= seqRes.HostSteps; step++ {
				if sc.Faults.LinkDown(link, step) && !plan.LinkDown(link, step) {
					fail("outage-monotone", "link %d down at step %d under base fractions but up under doubled", link, step)
					break subset
				}
			}
		}
		if len(sc.Faults.Spikes) == 0 && sc.Adapt == nil {
			baseSteps := seqRes.HostSteps
			if len(plan.Jitters) > 0 {
				plan.Jitters = nil
				calmPlan := *sc.Faults
				calmPlan.Jitters = nil
				ccfg := *cfg
				ccfg.Faults = &calmPlan
				calmRes, _, err := run(ccfg, 0, false)
				if err != nil {
					return nil, fmt.Errorf("verify: scenario %q jitter-free variant: %w", sc, err)
				}
				baseSteps = calmRes.HostSteps
			}
			wcfg := *cfg
			wcfg.Faults = &plan
			worseRes, _, err := run(wcfg, 0, false)
			if err != nil {
				return nil, fmt.Errorf("verify: scenario %q outage variant: %w", sc, err)
			}
			if worseRes.HostSteps+int64(sc.Steps) < baseSteps {
				fail("outage-monotone", "doubling outage fractions sped the run up: %d -> %d host steps",
					baseSteps, worseRes.HostSteps)
			}
		}
	}

	// Mirror invariance: reversing the host line (delays and assignment)
	// relabels every position without changing the schedule's aggregates.
	// Restricted to Rep == 1 (multi-holder sender election breaks ties
	// leftward), fault-free runs (fault hashes are keyed by site id) and
	// non-adaptive runs (placement ties break toward the lower host).
	if sc.Rep == 1 && sc.Faults == nil && sc.Adapt == nil {
		rep.Relations = append(rep.Relations, "mirror-invariance")
		mcfg, err := mirror(*cfg)
		if err != nil {
			return nil, err
		}
		mirRes, _, err := run(mcfg, 0, false)
		if err != nil {
			return nil, fmt.Errorf("verify: scenario %q mirror variant: %w", sc, err)
		}
		if a, b := fingerprint(seqRes), fingerprint(mirRes); a != b {
			fail("mirror-invariance", "reversing the host line changed the schedule: %+v != %+v", a, b)
		}
	}

	return rep, nil
}

// mirror returns cfg with the host line reversed: delays flipped and every
// position p's columns moved to hostN-1-p.
func mirror(cfg sim.Config) (sim.Config, error) {
	n := len(cfg.Delays) + 1
	rev := make([]int, len(cfg.Delays))
	for i, d := range cfg.Delays {
		rev[len(rev)-1-i] = d
	}
	owned := make([][]int, n)
	for p, cols := range cfg.Assign.Owned {
		owned[n-1-p] = append([]int(nil), cols...)
	}
	a, err := assign.FromOwned(n, cfg.Assign.Columns, owned)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Delays = rev
	cfg.Assign = a
	return cfg, nil
}

// SoakResult aggregates a soak sweep.
type SoakResult struct {
	Seed      uint64
	Scenarios int
	// Events is the total canonical stream length oracle-checked.
	Events int64
	// Relations counts how often each metamorphic relation was exercised.
	Relations map[string]int
	// Failures holds the reports that carried violations.
	Failures []*Report
}

// OK reports whether the whole soak came back clean.
func (r *SoakResult) OK() bool { return len(r.Failures) == 0 }

// Summary writes a deterministic one-screen digest.
func (r *SoakResult) Summary(w io.Writer) {
	fmt.Fprintf(w, "verify: seed=%d scenarios=%d events=%d\n", r.Seed, r.Scenarios, r.Events)
	names := make([]string, 0, len(r.Relations))
	for name := range r.Relations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-20s %d checked\n", name, r.Relations[name])
	}
	if r.OK() {
		fmt.Fprintf(w, "verify: PASS (0 violations)\n")
		return
	}
	fmt.Fprintf(w, "verify: FAIL (%d scenarios violated invariants)\n", len(r.Failures))
	for _, rep := range r.Failures {
		fmt.Fprintf(w, "  scenario %s\n", rep.Scenario)
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "    %s\n", v)
		}
	}
}

// Soak generates and checks n scenarios from the seed's stream. The error
// return is infrastructural; verification failures are in the result.
func Soak(seed uint64, n int) (*SoakResult, error) {
	return SoakGen(seed, n, Generate, nil)
}

// SoakGen is Soak over an arbitrary scenario generator (Generate for the
// standard stream, GenerateChaos for the regime-restricted CI soak), with a
// progress callback invoked after each scenario with the number checked so
// far (nil disables it); the CLI's -live status line hangs off it.
func SoakGen(seed uint64, n int, gen func(seed uint64, i int) *Scenario, progress func(done int)) (*SoakResult, error) {
	out := &SoakResult{Seed: seed, Scenarios: n, Relations: map[string]int{}}
	for i := 0; i < n; i++ {
		rep, err := CheckScenario(gen(seed, i))
		if err != nil {
			return nil, fmt.Errorf("scenario %d: %w", i, err)
		}
		out.Events += int64(rep.Events)
		for _, rel := range rep.Relations {
			out.Relations[rel]++
		}
		if len(rep.Violations) > 0 {
			out.Failures = append(out.Failures, rep)
		}
		if progress != nil {
			progress(i + 1)
		}
	}
	return out, nil
}
