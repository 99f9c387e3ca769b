package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

// Both engines must produce bit-identical Results and obs event streams under
// every fault kind; these tests sweep each kind separately and combined.

// stripGauges copies a parallel result with its wall-clock chunk gauges
// zeroed: gauges are engine-specific telemetry, deliberately outside the
// bit-identity contract.
func stripGauges(r *Result) *Result {
	if r == nil || r.Chunks == nil {
		return r
	}
	cp := *r
	cp.Chunks = nil
	return &cp
}

// runBoth runs cfg sequentially and with each worker count, asserting
// bit-identical Result and event stream, and returns the sequential result.
func runBoth(t *testing.T, cfg Config, label string) *Result {
	t.Helper()
	seqBuf := obs.NewBuffer()
	cfg.Workers = 0
	cfg.Recorder = seqBuf
	seqRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s seq: %v", label, err)
	}
	for _, workers := range []int{2, 3} {
		parBuf := obs.NewBuffer()
		pcfg := cfg
		pcfg.Workers = workers
		pcfg.Recorder = parBuf
		parRes, err := Run(pcfg)
		if err != nil {
			t.Fatalf("%s workers %d: %v", label, workers, err)
		}
		if !reflect.DeepEqual(seqRes, stripGauges(parRes)) {
			t.Fatalf("%s workers %d: results differ:\nseq %+v\npar %+v",
				label, workers, seqRes, parRes)
		}
		se, pe := seqBuf.Events(), parBuf.Events()
		if len(se) != len(pe) {
			t.Fatalf("%s workers %d: %d events != %d", label, workers, len(pe), len(se))
		}
		for i := range se {
			if se[i] != pe[i] {
				t.Fatalf("%s workers %d: event %d differs:\nseq %+v\npar %+v",
					label, workers, i, se[i], pe[i])
			}
		}
	}
	return seqRes
}

func TestEnginesIdenticalUnderEachFaultKind(t *testing.T) {
	plans := map[string]*fault.Plan{
		"jitter": {Seed: 99, Jitters: []fault.Jitter{{Link: -1, Amp: 6, Prob: 0.5}}},
		"outage": {Seed: 99, Outages: []fault.Outage{{Link: -1, Window: 8, Frac: 0.3}}},
		"slow":   {Seed: 99, Slowdowns: []fault.Slowdown{{Host: -1, Window: 10, Frac: 0.4, Limit: 0}}},
		"crash":  {Seed: 99, Crashes: []fault.Crash{{Host: 5, Step: 20}}},
		"combined": {
			Seed:      7,
			Jitters:   []fault.Jitter{{Link: 3, Amp: 4, Prob: 0.8}},
			Outages:   []fault.Outage{{Link: 9, Window: 6, Frac: 0.5}},
			Slowdowns: []fault.Slowdown{{Host: 2, Window: 12, Frac: 0.6, Limit: 0}},
			Crashes:   []fault.Crash{{Host: 11, Step: 35}},
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{3, 21} {
				cfg := randomNOWConfig(t, seed, 16)
				cfg.Faults = plan
				runBoth(t, cfg, name)
			}
		})
	}
}

// An empty (but non-nil) plan must reproduce the fault-free run exactly.
func TestEmptyPlanIsNoOp(t *testing.T) {
	cfg := randomNOWConfig(t, 5, 16)
	base := runBoth(t, cfg, "fault-free")
	cfg.Faults = &fault.Plan{Seed: 1}
	withPlan := runBoth(t, cfg, "empty-plan")
	if !reflect.DeepEqual(base, withPlan) {
		t.Fatalf("empty plan perturbed the run:\nbase %+v\nplan %+v", base, withPlan)
	}
}

// Replicated assignments survive any single crash: the run completes and the
// surviving replicas verify against the reference.
func TestReplicatedAssignmentSurvivesAnySingleCrash(t *testing.T) {
	const hostN = 8
	a, err := assign.ReplicatedBlocks(hostN, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays: []int{2, 5, 1, 7, 3, 2, 4},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 8, Seed: 17},
		Assign: a,
		Check:  true,
	}
	for h := 0; h < hostN; h++ {
		cfg.Faults = &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: h, Step: 5}}}
		res := runBoth(t, cfg, "crash-host")
		if !res.Checked {
			t.Fatalf("crash host %d: surviving replicas not verified", h)
		}
	}
}

// A crash that orphans a column (no surviving replica) must fail fast with
// UncomputableError naming the columns — identically from both engines.
func TestSingleCopyCrashUncomputable(t *testing.T) {
	a, err := assign.SingleCopyBlocks(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays: []int{1, 2, 1, 3, 1, 2, 1},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(16), Steps: 6, Seed: 3},
		Assign: a,
		Faults: &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Host: 4, Step: 3}}},
	}
	var seqErr *UncomputableError
	_, err = Run(cfg)
	if !errors.As(err, &seqErr) {
		t.Fatalf("seq: want UncomputableError, got %v", err)
	}
	cfg.Workers = 3
	var parErr *UncomputableError
	_, err = Run(cfg)
	if !errors.As(err, &parErr) {
		t.Fatalf("par: want UncomputableError, got %v", err)
	}
	if !reflect.DeepEqual(seqErr.Columns, parErr.Columns) {
		t.Fatalf("engines disagree on orphaned columns: %v vs %v", seqErr.Columns, parErr.Columns)
	}
	if len(seqErr.Columns) == 0 || seqErr.Crashed[0] != 4 {
		t.Fatalf("bad error detail: %+v", seqErr)
	}
	if !strings.Contains(seqErr.Error(), "uncomputable") {
		t.Fatalf("error message: %v", seqErr)
	}
}

// Raising the outage fraction only adds down-windows (monotone nesting), so
// completion time must be non-decreasing along a fraction sweep.
func TestOutageFractionMonotone(t *testing.T) {
	cfg := randomNOWConfig(t, 13, 16)
	prev := int64(0)
	for _, frac := range []float64{0, 0.1, 0.25, 0.5, 0.9} {
		if frac > 0 {
			cfg.Faults = &fault.Plan{
				Seed:    42,
				Outages: []fault.Outage{{Link: -1, Window: 8, Frac: frac}},
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("frac %g: %v", frac, err)
		}
		if res.HostSteps < prev {
			t.Fatalf("frac %g: host steps %d dropped below %d", frac, res.HostSteps, prev)
		}
		prev = res.HostSteps
	}
}

// Slowdown faults cost throughput: a permanent Limit-0 slowdown on a loaded
// host must strictly lengthen the run.
func TestSlowdownLengthensRun(t *testing.T) {
	cfg := randomNOWConfig(t, 29, 12)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Plan{
		Seed:      8,
		Slowdowns: []fault.Slowdown{{Host: -1, Window: 4, Frac: 0.9, Limit: 0}},
	}
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.HostSteps <= base.HostSteps {
		t.Fatalf("slowdown did not lengthen run: %d <= %d", slow.HostSteps, base.HostSteps)
	}
}

// Fault telemetry: the canonical stream carries KindFault spans and the
// attribution tiling still holds with the fault cause included.
func TestFaultEventsInStreamAndAttribution(t *testing.T) {
	cfg := randomNOWConfig(t, 31, 16)
	cfg.Faults = &fault.Plan{
		Seed:      5,
		Outages:   []fault.Outage{{Link: -1, Window: 8, Frac: 0.3}},
		Slowdowns: []fault.Slowdown{{Host: 3, Window: 10, Frac: 0.5, Limit: 0}},
		Crashes:   nil,
	}
	buf := obs.NewBuffer()
	cfg.Recorder = buf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var faults int
	for _, e := range buf.Events() {
		if e.Kind == obs.KindFault {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no KindFault events recorded")
	}
	an := obs.Analyze(buf.Events(), cfg.ObsInfo(res))
	sb := an.Stalls()
	total := sb.Busy + sb.Idle + sb.Dependency + sb.Bandwidth + sb.Fault
	if total != sb.ProcSteps {
		t.Fatalf("attribution tiling broken: %d != %d (%+v)", total, sb.ProcSteps, sb)
	}
	if sb.Fault == 0 {
		t.Fatalf("no fault-attributed stall steps despite heavy plan (%+v)", sb)
	}
}

// Step-cap aborts carry the dataflow frontier from both engines.
func TestStepCapForensics(t *testing.T) {
	cfg := randomNOWConfig(t, 3, 16)
	cfg.maxSteps = 3 // far too small to finish
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "pebbles remaining") {
		t.Fatalf("seq cap error lacks frontier: %v", err)
	}
	if !strings.Contains(err.Error(), "stuck at guest step") {
		t.Fatalf("seq cap error lacks stuck column: %v", err)
	}
	cfg.Workers = 3
	_, err = Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "pebbles remaining") {
		t.Fatalf("par cap error lacks frontier: %v", err)
	}
}
