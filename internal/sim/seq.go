package sim

import (
	"fmt"
	"slices"

	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// runSequential executes the whole line as a single chunk, fast-forwarding
// over quiet periods (steps where nothing computes, arrives or transmits).
//
// Adaptive runs insert the replication controller at every epoch boundary
// E: the moment the clock first passes E — after step E is fully simulated,
// before step E+1 begins — atBoundary harvests the epoch's stall forensics
// and activates standbys. Fast-forwards are clamped to the next boundary so
// no quiet jump skips one; the parallel engine caps its workers' horizons
// at the same points, which is what keeps adaptive runs bit-identical.
func runSequential(cfg *Config, rt *routeTable) (*Result, error) {
	c := newChunk(cfg, rt, 0, cfg.hostN())
	maxSteps := cfg.stepCap()
	ast := cfg.ast
	var nextB int64
	if ast != nil {
		nextB = int64(ast.policy.Epoch)
	}
	for {
		// Adaptive runs terminate at full quiescence, not at the last pebble:
		// standby-bound traffic still in flight must drain so both engines
		// count the same complete event set (see chunk.quiescent). The check
		// precedes the boundary branch — a run that drains dry before the
		// next boundary never runs the controller there, exactly like the
		// parallel engine's terminal barrier.
		if c.remaining == 0 && (ast == nil || c.quiescent()) {
			break
		}
		if ast != nil && c.now > nextB {
			ast.atBoundary(nextB, []*chunk{c})
			nextB += int64(ast.policy.Epoch)
			continue
		}
		if c.now > maxSteps {
			return nil, fmt.Errorf("sim: exceeded step cap %d: %s", maxSteps, frontier(c))
		}
		did := c.step()
		if c.remaining == 0 && ast == nil {
			break
		}
		if did {
			c.now++
			continue
		}
		next, ok := c.nextEvent()
		if !ok {
			if ast == nil {
				return nil, stallError(c)
			}
			// A quiescent chunk is not necessarily stuck under adaptation: a
			// boundary activation may revive the dataflow. The step cap still
			// bounds genuinely dead runs.
			next = nextB + 1
		}
		if next <= c.now {
			next = c.now + 1
		}
		if ast != nil && next > nextB+1 {
			next = nextB + 1
		}
		c.now = next
	}
	return collect(cfg, []*chunk{c})
}

// stallError reports a deadlocked dataflow with enough context to debug the
// assignment or routing table that caused it.
func stallError(c *chunk) error {
	return fmt.Errorf("sim: stalled at step %d: %s", c.now, frontier(c))
}

// frontier summarises the chunk's stuck dataflow frontier — the first live
// column that cannot advance, its missing dependency count, and the
// outstanding work — for stall and step-cap diagnostics.
func frontier(c *chunk) string {
	for i := range c.procs {
		p := &c.procs[i]
		if p.crashed {
			continue
		}
		for j := range p.cols {
			oc := &p.cols[j]
			if oc.dormant {
				continue
			}
			if oc.next <= c.T {
				return fmt.Sprintf("pos %d col %d stuck at guest step %d (missing %d deps); %d pebbles remaining",
					p.pos, oc.col, oc.next, oc.missing, c.remaining)
			}
		}
	}
	return fmt.Sprintf("%d pebbles remaining", c.remaining)
}

// collect assembles a Result from finished chunks and optionally verifies
// every database replica against the sequential reference executor.
func collect(cfg *Config, chunks []*chunk) (*Result, error) {
	res := &Result{}
	if len(chunks) > 0 && chunks[0].tel != nil {
		// One process-wide reading at collect time; 0 means unknown
		// (non-Linux / restricted proc) and the manifest tolerates that.
		chunks[0].tel.SetMax(chunks[0].met.rssPeakBytes, int64(telemetry.ReadPeakRSS()))
	}
	var dups int64
	for _, c := range chunks {
		c.flushTelemetry() // final delta push; no-op without a registry
		if c.lastComputeStep > res.HostSteps {
			res.HostSteps = c.lastComputeStep
		}
		for i := range c.procs {
			res.PebblesComputed += c.procs[i].computed
		}
		res.Messages += c.messages
		res.MessageHops += c.hops
		res.DeliveredValues += c.delivered
		if q := c.peakQueue(); q > res.MaxQueueDepth {
			res.MaxQueueDepth = q
		}
		dups += c.duplicates
	}
	if dups > 0 {
		return nil, fmt.Errorf("sim: %d duplicate deliveries (routing bug)", dups)
	}
	if cfg.TraceWindow > 0 {
		// Pre-size both timelines to the widest chunk window count so the
		// merge is a flat O(n) accumulation instead of growing
		// element-by-element inside the loop.
		windows := 0
		for _, c := range chunks {
			if len(c.traceComputes) > windows {
				windows = len(c.traceComputes)
			}
			if len(c.traceHops) > windows {
				windows = len(c.traceHops)
			}
		}
		tr := &Trace{
			Window:   cfg.TraceWindow,
			Computes: make([]int64, windows),
			Hops:     make([]int64, windows),
		}
		for _, c := range chunks {
			for i, v := range c.traceComputes {
				tr.Computes[i] += v
			}
			for i, v := range c.traceHops {
				tr.Hops[i] += v
			}
		}
		res.Trace = tr
	}
	if cfg.ast != nil {
		res.AdaptActivations = len(cfg.ast.decisions)
	}
	if cfg.Check {
		if err := verify(cfg, chunks); err != nil {
			return nil, err
		}
		res.Checked = true
	}
	if cfg.Recorder != nil {
		cfg.Recorder.Append(mergeEvents(cfg, chunks, res.HostSteps))
	}
	return res, nil
}

// mergeEvents gathers the per-chunk buffers and the synthesised fault and
// adaptation events into one exactly sized slice and sorts it into
// canonical order: the engines produce identical per-step event multisets,
// so the result is bit-identical across engines and worker counts. A lone
// chunk buffer is sorted in place rather than copied.
func mergeEvents(cfg *Config, chunks []*chunk, hostSteps int64) []obs.Event {
	parts := make([][]obs.Event, 0, len(chunks)+2)
	for _, c := range chunks {
		parts = append(parts, c.buf.Events())
	}
	if cfg.Faults != nil {
		if fe := faultEvents(cfg, hostSteps); len(fe) > 0 {
			parts = append(parts, fe)
		}
	}
	if cfg.ast != nil && len(cfg.ast.decisions) > 0 {
		parts = append(parts, cfg.ast.adaptEvents())
	}
	events := parts[0]
	if len(parts) > 1 {
		events = slices.Concat(parts...)
	}
	obs.Canonicalize(events)
	return events
}

// verify recomputes the guest sequentially and compares every replica's
// final database digest (which is order-sensitive over the full update
// history) against ground truth.
func verify(cfg *Config, chunks []*chunk) error {
	oracle, err := guest.RunDigestParallel(cfg.Guest, 0)
	if err != nil {
		return err
	}
	// Crash-stop hosts freeze mid-run; their replicas are legitimately
	// incomplete and are not checked.
	var dead map[int]bool
	if cfg.Faults != nil {
		if crashed := cfg.Faults.CrashedHosts(); len(crashed) > 0 {
			dead = make(map[int]bool, len(crashed))
			for _, h := range crashed {
				dead[h] = true
			}
		}
	}
	for _, c := range chunks {
		for _, rd := range c.finalDigests() {
			if dead[rd.pos] || rd.dormant {
				continue
			}
			if rd.version != cfg.Guest.Steps {
				return fmt.Errorf("sim: replica of db %d at pos %d has version %d, want %d",
					rd.col, rd.pos, rd.version, cfg.Guest.Steps)
			}
			if rd.digest != oracle.FinalDigests[rd.col] {
				return fmt.Errorf("sim: replica of db %d at pos %d has digest %#x, want %#x",
					rd.col, rd.pos, rd.digest, oracle.FinalDigests[rd.col])
			}
		}
	}
	return nil
}
