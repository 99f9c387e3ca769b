// Package sim is the host simulator: it executes a guest computation in the
// database model (Section 2) on a host linear array with arbitrary link
// delays, charging exactly the paper's communication cost — a message
// injected on a delay-d link at step s is deliverable at step s+d, and each
// directed link injects at most B pebbles per step, so P pebbles cross in
// d + ceil(P/B) - 1 steps.
//
// General bounded-degree hosts are handled upstream by embedding a linear
// array with dilation 3 (Fact 3, package embedding); the engine itself always
// runs on a line, which is how every simulation in the paper is organised.
//
// Execution is greedy dataflow: a host processor holding a replica of
// database b_i computes every pebble (i, t) in step order, as soon as the
// dependency pebbles (i-1, t-1), (i, t-1), (i+1, t-1) are known to it; each
// computed pebble is multicast to the processors that need it but cannot
// compute it themselves. The greedy policy executes any feasible schedule no
// later than the schedule itself up to constants, and keeps the engine
// independent of the particular assignment (OVERLAP, Theorem 4 blocks,
// single-copy baselines, ... all run unmodified).
//
// Two engines share the same step semantics: a sequential engine, and a
// conservative parallel discrete-event engine (one goroutine per contiguous
// chunk of the line, null-message synchronisation with lookahead equal to
// the boundary link delay). They produce bit-identical results; tests assert
// it.
package sim

import (
	"fmt"
	"time"

	"latencyhide/internal/adapt"
	"latencyhide/internal/assign"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// Config describes one host simulation run.
type Config struct {
	// Delays[i] is the delay of host line link (i, i+1); the host has
	// len(Delays)+1 workstations.
	Delays []int
	// Guest is the guest computation (graph, steps, seed, databases).
	Guest guest.Spec
	// Assign maps guest columns to host positions. Assign.HostN must equal
	// len(Delays)+1 and Assign.Columns must equal the guest node count.
	Assign *assign.Assignment
	// Bandwidth is the number of pebbles each directed link can inject per
	// step; every link has the same B, as in the paper. Zero means the
	// paper's high-bandwidth assumption, max(1, ceil(log2 hostN)).
	Bandwidth int
	// ComputePerStep is how many pebbles one workstation computes per
	// step; zero means 1 (the paper's model).
	ComputePerStep int
	// Workers > 1 selects the parallel engine with that many chunks.
	Workers int
	// Check verifies every database replica's final digest against the
	// sequential reference executor.
	Check bool
	// TraceWindow > 0 collects a utilization timeline: pebbles computed
	// and link crossings per window of that many host steps.
	TraceWindow int
	// Recorder, when non-nil, receives the run's structured event stream
	// (package obs). Both engines buffer events per chunk and append the
	// merged stream in canonical order after the run, so the buffer holds a
	// bit-identical stream from either engine; a reused buffer accumulates
	// runs. Nil costs nothing.
	Recorder *obs.Buffer
	// Faults, when non-nil, injects the plan's deterministic faults (link
	// jitter, link outages, host slowdowns, crash-stop hosts — see
	// internal/fault and faults.go). Crash-stop hosts are excluded from
	// routing up front; if that orphans a column (no surviving replica),
	// Run fails fast with *UncomputableError. Nil or empty plans are a true
	// no-op.
	Faults *fault.Plan
	// Adapt, when enabled, runs the adaptive replication controller
	// (internal/adapt): dormant standby replicas are provisioned at build
	// time and activated at epoch boundaries when the stall forensics blame
	// a column past the policy threshold. Fully deterministic: adaptive runs
	// stay bit-identical across engines and worker counts (see adapt.go).
	Adapt *adapt.Policy
	// Telemetry, when non-nil, receives the engine's runtime metrics: Run
	// registers the engine schema on it and both engines cut one shard per
	// chunk (plus one for the parallel watchdog). Hot-path accumulation is
	// plain fields flushed into the shard every 64 steps, so enabling it is
	// cheap and nil disables it down to a single branch per step. See
	// internal/sim/telemetry.go for the metric names.
	Telemetry *telemetry.Registry

	// em caches the resolved metric IDs for this run; set by Run.
	em *engineMetrics
	// ast is the resolved adaptive-replication state; set by Run when Adapt
	// is enabled.
	ast *adaptState
	// retireOverride (tests only) is copied onto every chunk; see
	// chunk.retireOverride.
	retireOverride func(c *chunk, p *proc, idx, t int32)
	// maxSteps (tests only) replaces the derived step cap when positive.
	maxSteps int64
	// watchdogIdle (tests only) replaces the parallel engine's 6 s
	// no-progress window when positive.
	watchdogIdle time.Duration
}

func (c *Config) hostN() int { return len(c.Delays) + 1 }

func (c *Config) bandwidth() int {
	if c.Bandwidth > 0 {
		return c.Bandwidth
	}
	b := network.Log2Ceil(c.hostN())
	if b < 1 {
		b = 1
	}
	return b
}

func (c *Config) computePerStep() int {
	if c.ComputePerStep > 0 {
		return c.ComputePerStep
	}
	return 1
}

// stepCap is the step count past which a run aborts (a stall safety net):
// a generous bound derived from the work and delay volume.
func (c *Config) stepCap() int64 {
	if c.maxSteps > 0 {
		return c.maxSteps
	}
	var total int64
	dmax := 0
	for _, d := range c.Delays {
		total += int64(d)
		if d > dmax {
			dmax = d
		}
	}
	load := int64(c.Assign.Load())
	t := int64(c.Guest.Steps)
	// Generous: work term + delay term, with headroom.
	cap := 64*(t*(load+1)+int64(dmax)*(t+2)) + 4*total + 1<<16
	return cap
}

// Validate checks the configuration is runnable.
func (c *Config) Validate() error {
	if err := c.Guest.Validate(); err != nil {
		return err
	}
	if c.Assign == nil {
		return fmt.Errorf("sim: nil assignment")
	}
	if c.Assign.HostN != c.hostN() {
		return fmt.Errorf("sim: assignment hosts %d != line size %d", c.Assign.HostN, c.hostN())
	}
	if c.Assign.Columns != c.Guest.Graph.NumNodes() {
		return fmt.Errorf("sim: assignment columns %d != guest nodes %d",
			c.Assign.Columns, c.Guest.Graph.NumNodes())
	}
	for i, d := range c.Delays {
		if d < 1 {
			return fmt.Errorf("sim: link %d has delay %d < 1", i, d)
		}
	}
	if err := c.Assign.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.hostN()); err != nil {
		return err
	}
	if err := c.Adapt.Validate(); err != nil {
		return err
	}
	return nil
}

// Result reports what a run measured.
type Result struct {
	GuestSteps int
	HostSteps  int64   // step at which the last pebble was computed
	Slowdown   float64 // HostSteps / GuestSteps
	Load       int     // max databases per workstation

	PebblesComputed int64   // includes redundant recomputation
	GuestWork       int64   // guest nodes * steps
	Redundancy      float64 // PebblesComputed / GuestWork
	Messages        int64   // pebble transmissions injected into links
	MessageHops     int64   // total link crossings
	DeliveredValues int64
	MaxQueueDepth   int // deepest injection queue seen (bandwidth pressure)

	Bandwidth int
	Checked   bool // final database digests verified against the reference

	// AdaptActivations is how many standby replicas the adaptive controller
	// activated (0 unless Config.Adapt is enabled).
	AdaptActivations int

	// Trace is the utilization timeline when Config.TraceWindow > 0.
	Trace *Trace

	// Chunks holds per-chunk engine gauges from parallel runs (empty for
	// the sequential engine). These are wall-clock measurements — they are
	// not part of the deterministic result and differ run to run.
	Chunks []obs.ChunkGauge
}

// Trace is a windowed timeline of engine activity: entry w covers host
// steps [w*Window+1, (w+1)*Window].
type Trace struct {
	Window   int
	Computes []int64 // pebbles computed per window
	Hops     []int64 // link crossings per window
}

// Utilization returns the fraction of total compute capacity used in each
// window, given the number of busy-capable workstations.
func (t *Trace) Utilization(procs int) []float64 {
	out := make([]float64, len(t.Computes))
	den := float64(procs * t.Window)
	if den <= 0 {
		return out
	}
	for i, c := range t.Computes {
		out[i] = float64(c) / den
	}
	return out
}

// ObsInfo builds the static run facts package obs's instruments need
// alongside the event stream, from this configuration and a finished run's
// result.
func (c *Config) ObsInfo(res *Result) obs.RunInfo {
	n := c.hostN()
	info := obs.RunInfo{
		HostN:       n,
		GuestSteps:  c.Guest.Steps,
		Delays:      append([]int(nil), c.Delays...),
		Bandwidth:   c.bandwidth(),
		ProcPebbles: make([]int64, n),
		Neighbors:   c.Guest.Graph.Neighbors,
	}
	if res != nil {
		info.HostSteps = res.HostSteps
	}
	for p := 0; p < n; p++ {
		info.ProcPebbles[p] = int64(len(c.Assign.Owned[p])) * int64(c.Guest.Steps)
	}
	return info
}

// Run executes the simulation and returns measurements. It returns an error
// for invalid configurations, stalls (deadlocked dataflow — always an
// assignment/routing bug), exceeded step caps, and fault plans that crash
// every replica of some column (*UncomputableError).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var crashed []int
	if cfg.Faults != nil {
		crashed = cfg.Faults.CrashedHosts()
		if len(crashed) > 0 {
			if orphans := orphanedColumns(&cfg, crashed); len(orphans) > 0 {
				return nil, &UncomputableError{Columns: orphans, Crashed: crashed}
			}
		}
	}
	if cfg.Adapt.Enabled() {
		cfg.ast = newAdaptState(&cfg, crashed)
	}
	var extra [][]int
	if cfg.ast != nil {
		extra = cfg.ast.extraCols
	}
	routes := buildRoutes(cfg.Guest.Graph, cfg.Assign, crashed, extra)
	if cfg.Telemetry != nil {
		cfg.em = registerEngineMetrics(cfg.Telemetry)
	}
	var (
		res *Result
		err error
	)
	if cfg.Workers > 1 {
		res, err = runParallel(&cfg, routes)
	} else {
		res, err = runSequential(&cfg, routes)
	}
	if err != nil {
		return nil, err
	}
	res.GuestSteps = cfg.Guest.Steps
	res.GuestWork = int64(cfg.Guest.Graph.NumNodes()) * int64(cfg.Guest.Steps)
	if cfg.Guest.Steps > 0 {
		res.Slowdown = float64(res.HostSteps) / float64(cfg.Guest.Steps)
	}
	if res.GuestWork > 0 {
		res.Redundancy = float64(res.PebblesComputed) / float64(res.GuestWork)
	}
	res.Load = cfg.Assign.Load()
	res.Bandwidth = cfg.bandwidth()
	return res, err
}
