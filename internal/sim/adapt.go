package sim

import (
	"sync"
	"sync/atomic"

	"latencyhide/internal/adapt"
	"latencyhide/internal/obs"
)

// Adaptive replication in the engine (see internal/adapt for the policy):
//
// Standby replicas are provisioned at build time and dormant until the
// controller activates them. For every column, adapt.Placement picks up to
// MaxExtra consumer hosts; each gets a dormant ownedCol appended after the
// host's base columns, and the routing table fans the standby column's
// dependency traffic out to that host from step 1 (buildRoutes' extra
// destinations). A dormant column never computes, never sends, and holds
// no place in the remaining-work counters — but being a registered
// consumer, it pins its dependencies' values in the knowledge store, which
// is exactly what lets an activation replay the column from guest step 1.
//
// The controller runs at epoch boundaries E, 2E, ...: it harvests the
// per-column stall blame the chunks accumulated during the epoch (see
// depBlame in chunk.go), feeds the dormant candidates to adapt.Decide in
// canonical (host, column) order, and activates the winners effective at
// step E+1 — dormant -> live, ready at guest step 1, T pebbles added to
// the remaining-work counters so the run (and its digest verification)
// waits for the catch-up to finish. Activated standbys still never send:
// they serve their own host's consumers, cutting the supply latency the
// forensics blamed.
//
// Determinism: placement is a pure function of static config; blame is a
// pure function of the (bit-identical) simulation at steps <= E; the
// candidate order is canonical; and both engines run the controller at the
// exact same point — the sequential engine when its clock first passes E,
// the parallel engine at a barrier all workers reach with their clocks at
// exactly E+1 (see epochGate below). So adaptive runs stay bit-identical
// across engines and worker counts.
type adaptState struct {
	policy    *adapt.Policy
	placement [][]int      // per column: standby hosts, ascending
	extraCols [][]int      // per host: standby columns, ascending
	dead      map[int]bool // crash-stop hosts (excluded from placement)

	// Controller state. Only one goroutine touches it at a time: the
	// sequential engine inline, the parallel engine's last barrier arriver
	// with the gate providing the happens-before edges.
	budget    int
	decisions []adapt.Decision
}

// newAdaptState resolves the policy against the static configuration.
func newAdaptState(cfg *Config, crashed []int) *adaptState {
	pol := cfg.Adapt
	dead := make(map[int]bool, len(crashed))
	for _, h := range crashed {
		dead[h] = true
	}
	pl := pol.Placement(cfg.Assign, cfg.Delays, cfg.Guest.Graph.Neighbors, crashed)
	extra := make([][]int, cfg.hostN())
	for col, hosts := range pl {
		for _, h := range hosts {
			extra[h] = append(extra[h], col) // ascending: outer loop is
		}
	}
	return &adaptState{
		policy: pol, placement: pl, extraCols: extra, dead: dead,
		budget: pol.Budget,
	}
}

// unionCols merges two ascending, disjoint column lists.
func unionCols(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// atBoundary runs the controller at epoch boundary E. Every chunk must
// have simulated exactly the steps <= E (clock at E+1), so the harvested
// blame is identical in both engines. Returns the pebbles added to the
// chunks' remaining counters; the parallel caller mirrors them into its
// global counter.
func (a *adaptState) atBoundary(boundary int64, chunks []*chunk) int64 {
	epoch := int64(a.policy.Epoch)
	var cands []adapt.Candidate
	if a.budget > 0 {
		for _, c := range chunks {
			cands = a.harvest(c, boundary, cands)
		}
	}
	decisions, budget := a.policy.Decide(boundary+1, cands, a.budget)
	a.budget = budget
	var added int64
	for _, d := range decisions {
		added += activate(chunks, d)
	}
	a.decisions = append(a.decisions, decisions...)
	// Reset the epoch-local blame and advance every chunk's epoch clock so
	// ongoing blocked spans are clipped at this boundary from now on.
	for _, c := range chunks {
		for pi := range c.procs {
			p := &c.procs[pi]
			for i := range p.blame {
				for j := range p.blame[i].dep {
					p.blame[i].dep[j] = 0
				}
			}
		}
		c.epochStart = boundary
		_ = epoch
	}
	return added
}

// harvest appends chunk c's dormant-standby candidates for the epoch ending
// at boundary, in (host, column) order: the blame every live column on the
// host accumulated against the standby's column, including the still-open
// blocked spans clipped to the epoch.
func (a *adaptState) harvest(c *chunk, boundary int64, cands []adapt.Candidate) []adapt.Candidate {
	for pi := range c.procs {
		p := &c.procs[pi]
		if p.crashed {
			continue
		}
		hasDormant := false
		for i := range p.cols {
			if p.cols[i].dormant {
				hasDormant = true
				break
			}
		}
		if !hasDormant {
			continue
		}
		// blame per dependency column: the closed spans recorded in
		// p.blame plus the open spans of still-blocked columns.
		blame := map[int32]int64{}
		for i := range p.cols {
			oc := &p.cols[i]
			if oc.dormant {
				continue
			}
			nbs := p.cold[i].neighbors
			for j := range p.blame[i].dep {
				if p.blame[i].dep[j] > 0 {
					blame[nbs[j]] += p.blame[i].dep[j]
				}
			}
			if oc.next <= c.T && oc.missing > 0 {
				from := p.blame[i].start
				if from < c.epochStart {
					from = c.epochStart
				}
				if dur := boundary - from; dur > 0 {
					dep := oc.next - 1
					for j, d := range c.nbDense[oc.dep : oc.dep+oc.deg] {
						if !p.know.has(d, dep) {
							blame[nbs[j]] += dur
						}
					}
				}
			}
		}
		for i := range p.cols {
			oc := &p.cols[i]
			if !oc.dormant {
				continue
			}
			b := blame[oc.col]
			if b <= 0 {
				continue
			}
			cand := adapt.Candidate{Host: int(p.pos), Col: int(oc.col), Blamed: b}
			if a.policy.RequireFault {
				cand.FaultContext = a.faultCtx(c.cfg, int(p.pos), int(oc.col), c.epochStart, boundary)
			}
			cands = append(cands, cand)
		}
	}
	return cands
}

// faultCtx reports whether the blamed column's supply path to the host
// overlapped an injected fault during the epoch (c.epochStart, boundary]:
// a down, jittery or spiky link between the host and the column's nearest
// surviving holder, or a slowdown on that holder. Pure plan queries, so
// both engines agree.
func (a *adaptState) faultCtx(cfg *Config, host, col int, lo, hi int64) bool {
	plan := cfg.Faults
	if plan == nil {
		return false
	}
	best := -1
	for _, h := range cfg.Assign.Holders[col] {
		if a.dead[h] {
			continue
		}
		if best == -1 || absInt(h-host) < absInt(best-host) {
			best = h
		}
	}
	if best == -1 {
		return false
	}
	for _, iv := range plan.SlowIntervals(best, hi) {
		if iv.Hi > lo {
			return true
		}
	}
	links := len(cfg.Delays)
	loL, hiL := host, best
	if loL > hiL {
		loL, hiL = hiL, loL
	}
	jit := plan.JitterLinks(links)
	spk := plan.SpikeLinks(links)
	for l := loL; l < hiL; l++ {
		if containsInt(jit, l) || containsInt(spk, l) {
			return true
		}
		for _, iv := range plan.OutageIntervals(l, hi) {
			if iv.Hi > lo {
				return true
			}
		}
	}
	return false
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func containsInt(sorted []int, x int) bool {
	for _, v := range sorted {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}

// activate flips one standby replica live, effective at d.Step: ready at
// guest step 1 (its step-1 dependencies are the initial values prefilled at
// init) with its T pebbles added to the remaining-work counters, so the run
// waits for the catch-up and the digest check covers the new replica.
func activate(chunks []*chunk, d adapt.Decision) int64 {
	for _, c := range chunks {
		if d.Host < c.lo || d.Host >= c.hi {
			continue
		}
		p := c.proc(d.Host)
		if p.crashed {
			return 0
		}
		for i := range p.cols {
			oc := &p.cols[i]
			if !oc.dormant || int(oc.col) != d.Col {
				continue
			}
			oc.dormant = false
			p.ready.push(readyKey(1, int32(i)))
			if !p.active {
				p.active = true
				c.activeList = append(c.activeList, p.pos)
			}
			t := int64(c.T)
			p.remaining += t
			c.remaining += t
			return t
		}
		return 0
	}
	return 0
}

// adaptEvents renders the controller's decisions as obs events, appended
// after the run like the fault spans.
func (a *adaptState) adaptEvents() []obs.Event {
	events := make([]obs.Event, 0, len(a.decisions))
	for _, d := range a.decisions {
		events = append(events, obs.Event{
			Step: d.Step, Kind: obs.KindAdapt,
			Proc: int32(d.Host), Col: int32(d.Col), Link: -1, Route: -1,
		})
	}
	return events
}

// epochGate is the parallel engine's epoch barrier. Workers arrive with
// their clocks at exactly boundary+1 (the horizon is capped there, so no
// chunk simulates past a boundary before the controller runs); the last
// arriver runs the controller over all chunks and releases the rest. While
// waiting, a worker keeps draining its boundary rings (with its idle flag
// raised so producers' wakes reach it) — otherwise a neighbor still
// running toward the barrier could fill a ring and spin forever on a
// worker that will never drain again.
//
// The gate is also where adaptive runs terminate: before running the
// controller, the last arriver checks global quiescence — pebble counter
// zero, every chunk quiescent, every boundary ring empty — and declares
// the run over instead. The check must mirror the sequential engine's rule
// (terminate at the first point past quiescence WITHOUT running the
// controller there), so it scans live state rather than trusting
// arrival-time votes: a worker that was quiescent when it arrived may have
// drained a neighbor's pre-barrier traffic while waiting, and a stale vote
// would then either terminate with work in flight or run the controller at
// a boundary the sequential engine never reaches (residual blame — e.g. a
// crashed column's permanently open blocked span — would activate standbys
// in one engine only). The scan is safe because every waiter is parked and
// only mutates its chunk inside drainBarrier, under this same mutex.
type epochGate struct {
	chunks  []*chunk
	workers []*worker // set once the workers exist, before any goroutine runs

	mu      sync.Mutex
	n       int
	arrived int
	release chan struct{}
}

func newEpochGate(n int, chunks []*chunk) *epochGate {
	return &epochGate{n: n, chunks: chunks, release: make(chan struct{})}
}

// arrive registers one worker at the barrier. The last arriver gets
// last=true and owns the terminal check, the controller and closing rel;
// everyone else waits on rel. The mutex hand-off orders every worker's
// chunk writes before the controller's reads, and the channel close orders
// the controller's writes before the released workers' reads.
func (g *epochGate) arrive() (last bool, rel chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.arrived++
	rel = g.release
	if g.arrived == g.n {
		g.arrived = 0
		g.release = make(chan struct{})
		return true, rel
	}
	return false, rel
}

// terminal is the last arriver's global-quiescence check for the boundary
// all workers are parked at. All chunk and ring writes are ordered before
// this read: simulating workers' writes by their arrive(), waiters' drains
// by drainBarrier — both through g.mu.
func (g *epochGate) terminal(global *int64) bool {
	if atomic.LoadInt64(global) != 0 {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.chunks {
		if !c.quiescent() {
			return false
		}
	}
	for _, wk := range g.workers {
		for _, s := range []*side{wk.left, wk.right} {
			if s != nil && !s.in.empty() {
				return false
			}
		}
	}
	return true
}

// drainBarrier drains w's inbound rings while w waits at the barrier. The
// gate mutex both keeps the drain's chunk writes exclusive with the last
// arriver's terminal scan and controller run, and orders them for whoever
// takes the mutex next.
func (g *epochGate) drainBarrier(w *worker) {
	g.mu.Lock()
	w.drainAll()
	g.mu.Unlock()
}
