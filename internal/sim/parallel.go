package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"latencyhide/internal/obs"
	"latencyhide/internal/telemetry"
)

// The parallel engine (v2) is a conservative parallel discrete-event
// simulator: the host line is split into contiguous chunks, one goroutine
// each, with lookahead equal to the boundary link delay. A chunk whose
// clock is at step s cannot send anything that arrives before s + d_boundary,
// so its neighbor may safely simulate up to that horizon.
//
// v2 replaces v1's per-slice channel protocol with three mechanisms:
//
//   - Work-balanced cuts: splitPositionsWork places cut i at the i-th work
//     quantile of the per-host pebble counts (not the i-th host quantile),
//     then nudges it onto the highest-delay link nearby — balanced chunks
//     eliminate stragglers, high-delay boundaries maximise lookahead.
//
//   - Published clocks + windowed batch coalescing: each worker owns one
//     atomic "promised clock" per boundary — the guarantee "nothing from me
//     will arrive before pub + d". Neighbors read it directly when computing
//     their horizon, so null messages cost one atomic load instead of a
//     channel round trip. Boundary messages accumulate in a per-direction
//     outbox and ship as one batch per window (window = max(1, d/2) steps of
//     clock advance), over a single-producer/single-consumer ring — the hot
//     path has no channel operation, no select and no allocation (batch
//     slices recycle through a reverse free ring).
//
//   - Demand-driven wakeups: a worker blocked at its horizon force-flushes
//     both outboxes, publishes its clock and parks on a 1-slot notify
//     channel guarded by an idle flag (store-idle, recheck, sleep on one
//     side; publish, load-idle, signal on the other — the classic Dekker
//     handshake, so wakeups are never lost under seq-cst atomics).
//
// Bit-identity with the sequential engine is preserved because coalescing
// only delays *transport*, never reorders *simulation*: a batch held after a
// flush at clock s0 contains messages injected at steps >= s0, which arrive
// at or after s0 + d; the neighbor that read pub = s0 simulates strictly
// below s0 + d, so no held message can be needed before the next flush
// publishes it. Within a chunk, same-step delivery order is fixed by the
// calendar's (position, from-left-first) key exactly as in the sequential
// engine, and receiveBoundary stamps arrivals with the same steps a local
// link would have produced. See DESIGN.md §5 for the full argument.

const (
	farFuture = math.MaxInt64 / 4

	// boundaryRingCap bounds batches in flight per boundary direction; a
	// full ring back-pressures the producer into draining its own inboxes.
	boundaryRingCap = 256
	// freeRingCap bounds recycled batch slices held per direction.
	freeRingCap = 8
	// boundaryBatchCap force-flushes an outbox regardless of the window,
	// bounding coalescing memory on very high-bandwidth boundaries.
	boundaryBatchCap = 4096
)

// side is one worker's view of one boundary direction: the rings to and
// from that neighbor, the clock promised to it, and the flush state.
type side struct {
	delay    int64
	window   int64 // clock advance between coalesced flushes
	fromLeft bool  // batches popped from `in` arrive from our left

	outbox *[]timedMsg       // chunk outbox feeding this boundary
	in     *spsc[[]timedMsg] // neighbor -> us: message batches
	out    *spsc[[]timedMsg] // us -> neighbor: message batches
	free   *spsc[[]timedMsg] // our shipped slices, recycled back to us
	retire *spsc[[]timedMsg] // consumed inbound slices, returned to neighbor

	pub       atomic.Int64  // clock we promise this neighbor (it reads this)
	peerClock *atomic.Int64 // the neighbor's promise to us (its side.pub)
	peer      *worker

	sentClock int64 // clock at the last batch flush
	flushes   int64
	sentMsgs  int64
}

type worker struct {
	c           *chunk
	left, right *side // nil at the line ends

	idle   atomic.Bool
	notify chan struct{} // 1-slot wakeup, paired with idle (Dekker handshake)

	global   *int64 // remaining pebbles across all chunks
	done     chan struct{}
	doneOnce *sync.Once
	errMu    *sync.Mutex
	err      *error

	// Adaptive replication (nil ast disables): workers cap their horizons
	// at nextB+1 and synchronise at gate so the controller sees every chunk
	// at exactly the epoch boundary. See adapt.go.
	ast   *adaptState
	gate  *epochGate
	nextB int64

	blockedAtHorizon int64
	blockedFor       time.Duration
}

func (w *worker) setErr(e error) {
	w.errMu.Lock()
	if *w.err == nil {
		*w.err = e
	}
	w.errMu.Unlock()
	w.doneOnce.Do(func() { close(w.done) })
}

func (w *worker) isDone() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// wake signals this worker if it has parked (or is about to park) at its
// horizon. Callers store their published state before calling, so the
// idle-flag load orders after that store and the handshake cannot lose a
// wakeup: either we observe idle and signal, or the worker's post-idle
// recheck observes our store.
func (w *worker) wake() {
	if w.idle.Load() {
		select {
		case w.notify <- struct{}{}:
		default:
		}
	}
}

// horizon is the largest step the chunk may safely simulate, exclusive:
// min over boundaries of the neighbor's promised clock plus the lookahead.
func (w *worker) horizon() int64 {
	h := int64(farFuture)
	if w.left != nil {
		if v := w.left.peerClock.Load() + w.left.delay; v < h {
			h = v
		}
	}
	if w.right != nil {
		if v := w.right.peerClock.Load() + w.right.delay; v < h {
			h = v
		}
	}
	return h
}

// drainSide consumes every pending inbound batch without blocking and
// returns the emptied slices to the neighbor's free ring for reuse. Reports
// whether anything was received (the epoch gate's quiescence votes are
// invalidated by post-vote arrivals).
func (w *worker) drainSide(s *side) bool {
	if s == nil {
		return false
	}
	got := false
	for {
		batch, ok := s.in.pop()
		if !ok {
			return got
		}
		got = true
		w.c.receiveBoundary(s.fromLeft, batch)
		if cap(batch) > 0 {
			s.retire.push(batch[:0]) // best-effort; dropped when full
		}
	}
}

func (w *worker) drainAll() bool {
	l := w.drainSide(w.left)
	r := w.drainSide(w.right)
	return l || r
}

func (w *worker) pendingInput() bool {
	return (w.left != nil && !w.left.in.empty()) ||
		(w.right != nil && !w.right.in.empty())
}

// flushSide ships the accumulated outbox batch when the coalescing window
// elapsed, the batch cap is hit, or the caller forces it (before parking at
// the horizon). A full ring back-pressures: we keep draining our own inboxes
// so the neighbor — possibly spinning on its own full ring — can progress.
func (w *worker) flushSide(s *side, force bool) bool {
	if s == nil {
		return true
	}
	batch := *s.outbox
	if len(batch) == 0 {
		return true
	}
	now := w.c.now
	if !force && now-s.sentClock < s.window && len(batch) < boundaryBatchCap {
		return true
	}
	for !s.out.push(batch) {
		if w.isDone() {
			return false
		}
		if tel := w.c.tel; tel != nil {
			tel.Inc(w.c.met.ringFullStalls)
		}
		w.drainAll()
		s.peer.wake()
		runtime.Gosched()
	}
	s.flushes++
	s.sentMsgs += int64(len(batch))
	s.sentClock = now
	if tel := w.c.tel; tel != nil {
		m := w.c.met
		tel.Inc(m.boundaryFlushes)
		tel.Add(m.boundaryMsgs, int64(len(batch)))
		tel.Observe(m.batchSize, int64(len(batch)))
		tel.SetMax(m.ringOccupancyPeak, int64(s.out.len()))
	}
	var repl []timedMsg
	if r, ok := s.free.pop(); ok {
		repl = r
	}
	*s.outbox = repl
	s.peer.wake()
	return true
}

// publish advances the clock promised to s's neighbor. With an empty outbox
// every future injection happens at a step >= now, so now itself is safe;
// with messages still held, only the last flushed clock is (held messages
// were injected at steps >= sentClock and arrive >= sentClock + delay).
// The store orders after any flushSide ring push, so a neighbor that reads
// the new clock is guaranteed to pop the batch it covers first.
func (w *worker) publish(s *side) {
	if s == nil {
		return
	}
	safe := w.c.now
	if len(*s.outbox) > 0 {
		safe = s.sentClock
	}
	if safe > s.pub.Load() {
		s.pub.Store(safe)
		s.peer.wake()
	}
}

// recordClockLag samples how far this chunk's clock runs ahead of each
// neighbor's published promise — the conservative-sync slack the chunk is
// carrying. Sampled per outer loop iteration and at every park, not per
// step.
func (w *worker) recordClockLag() {
	tel := w.c.tel
	if tel == nil {
		return
	}
	m := w.c.met
	for _, s := range []*side{w.left, w.right} {
		if s == nil {
			continue
		}
		if lag := w.c.now - s.peerClock.Load(); lag > 0 {
			tel.SetMax(m.pubclockLagMax, lag)
		}
	}
}

// runUntil simulates local steps strictly below h, decrementing the global
// remaining counter as pebbles complete. Returns false on error.
func (w *worker) runUntil(h, maxSteps int64) bool {
	c := w.c
	for c.now < h {
		if c.now > maxSteps {
			w.setErr(fmt.Errorf("sim: parallel chunk [%d,%d) exceeded step cap %d: %s",
				c.lo, c.hi, maxSteps, frontier(c)))
			return false
		}
		before := c.remaining
		did := c.step()
		if delta := before - c.remaining; delta > 0 {
			// Adaptive runs keep going past the last pebble to drain
			// standby-bound traffic; termination is the epoch gate's call.
			if atomic.AddInt64(w.global, -delta) == 0 && w.ast == nil {
				w.doneOnce.Do(func() { close(w.done) })
			}
		}
		if did {
			c.now++
			continue
		}
		next, ok := c.nextEvent()
		if !ok || next > h {
			next = h
		}
		if next <= c.now {
			next = c.now + 1
		}
		c.now = next
	}
	return true
}

func (w *worker) loop(maxSteps int64) {
	for {
		if w.ast == nil && atomic.LoadInt64(w.global) == 0 {
			return
		}
		if w.isDone() {
			return // quiescent termination, an error, or the watchdog fired
		}
		// Sample clocks before draining: any batch covering a clock we
		// read was pushed before that clock was published, so the drain
		// below observes it and nothing within the horizon is missed.
		h := w.horizon()
		if w.ast != nil && h > w.nextB+1 {
			// Never simulate past an epoch boundary before the controller
			// has run there: the adaptive horizon cap is what makes the
			// parallel engine's activation points identical to the
			// sequential engine's.
			h = w.nextB + 1
		}
		w.drainAll()
		w.recordClockLag()
		if w.c.now < h {
			if !w.runUntil(h, maxSteps) {
				return
			}
			if !w.flushSide(w.left, false) || !w.flushSide(w.right, false) {
				return
			}
			w.publish(w.left)
			w.publish(w.right)
			continue
		}
		if w.ast != nil && w.c.now == w.nextB+1 {
			// At the epoch boundary with steps <= nextB fully simulated.
			// Ship and promise everything first so neighbors still running
			// toward the boundary can reach it, then synchronise.
			if !w.flushSide(w.left, true) || !w.flushSide(w.right, true) {
				return
			}
			w.publish(w.left)
			w.publish(w.right)
			if !w.epochBarrier() {
				return
			}
			w.nextB += int64(w.ast.policy.Epoch)
			continue
		}
		// Blocked at the horizon: everything we hold is due — ship it,
		// promise our current clock (the demand-driven null message), then
		// park until a neighbor publishes or the run ends.
		if !w.flushSide(w.left, true) || !w.flushSide(w.right, true) {
			return
		}
		w.publish(w.left)
		w.publish(w.right)
		w.idle.Store(true)
		if w.horizon() > w.c.now || w.pendingInput() || w.isDone() {
			w.idle.Store(false)
			if w.isDone() && atomic.LoadInt64(w.global) != 0 {
				return // error or watchdog
			}
			continue
		}
		w.blockedAtHorizon++
		w.recordClockLag()
		if tel := w.c.tel; tel != nil {
			tel.Inc(w.c.met.workerParks)
		}
		start := time.Now()
		select {
		case <-w.notify:
			if tel := w.c.tel; tel != nil {
				tel.Inc(w.c.met.workerWakes)
			}
		case <-w.done:
		}
		w.idle.Store(false)
		w.blockedFor += time.Since(start)
		if w.isDone() {
			return // global hit zero, an error surfaced, or the watchdog fired
		}
	}
}

// epochBarrier synchronises every worker at epoch boundary w.nextB. Each
// worker votes on its chunk's quiescence as it arrives; the last arriver
// first checks for global quiescence (all votes quiet, no pebbles left, no
// batch in any boundary ring, no post-vote arrival) and terminates the run
// if so — the adaptive analogue of the sequential engine breaking out before
// the boundary branch. Otherwise it runs the replication controller over all
// chunks (mirroring any added pebbles into the global counter) and releases
// the rest. Waiters raise their idle flag and keep draining their boundary
// rings — under the gate mutex, so a post-vote arrival is never missed by
// the quiescence check — so a neighbor still running toward the barrier can
// never wedge on a full ring. Returns false when the run ended (quiescent
// termination, error or watchdog).
func (w *worker) epochBarrier() bool {
	last, rel := w.gate.arrive()
	if last {
		if w.gate.terminal(w.global) {
			w.doneOnce.Do(func() { close(w.done) })
			close(rel)
			return false
		}
		if added := w.ast.atBoundary(w.nextB, w.gate.chunks); added > 0 {
			atomic.AddInt64(w.global, added)
		}
		close(rel)
		return true
	}
	w.idle.Store(true)
	w.gate.drainBarrier(w)
	for {
		select {
		case <-rel:
			w.idle.Store(false)
			return !w.isDone()
		case <-w.done:
			w.idle.Store(false)
			return false
		case <-w.notify:
			w.gate.drainBarrier(w)
		}
	}
}

// splitPositionsWork splits [0, n) into w contiguous chunks at the work
// quantiles of the per-host work estimates (nil work = uniform), then nudges
// each cut onto the largest-delay link within a window around its quantile
// position. Cuts are strictly increasing and every chunk is non-empty for
// any 2 <= w <= n/2.
func splitPositionsWork(delays []int, work []int64, w int) []int {
	n := len(delays) + 1
	cuts := make([]int, 1, w+1)
	window := n / (4 * w)
	if window < 1 {
		window = 1 // n < 4w would otherwise collapse the nudge search
	}
	var prefix []int64
	var total int64
	if work != nil {
		prefix = make([]int64, n+1)
		for p := 0; p < n; p++ {
			prefix[p+1] = prefix[p] + work[p]
		}
		total = prefix[n]
	}
	for i := 1; i < w; i++ {
		var target int
		if total > 0 {
			// Smallest position whose work prefix reaches the i-th
			// quantile: chunk i gets ~1/w of the total work.
			want := int64(i) * total
			lo, hi := 0, n
			for lo < hi {
				mid := (lo + hi) / 2
				if prefix[mid]*int64(w) < want {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			target = lo
		} else {
			target = i * n / w
		}
		lo, hi := target-window, target+window
		if lo < cuts[len(cuts)-1]+1 {
			lo = cuts[len(cuts)-1] + 1
		}
		if hi > n-(w-i) {
			hi = n - (w - i)
		}
		best, bestD := -1, -1
		for p := lo; p <= hi && p-1 < len(delays); p++ {
			if p < 1 {
				continue
			}
			if d := delays[p-1]; d > bestD {
				best, bestD = p, d
			}
		}
		if best < 0 {
			// Defensive: the feasible window [prev+1, n-(w-i)] is never
			// empty for w <= n/2, but fall back to its left edge anyway.
			best = lo
		}
		cuts = append(cuts, best)
	}
	cuts = append(cuts, n)
	return cuts
}

// runParallel executes the simulation with cfg.Workers conservative chunks,
// cut at the work quantiles of the assignment's per-host pebble counts.
func runParallel(cfg *Config, rt *routeTable) (*Result, error) {
	n := cfg.hostN()
	w := cfg.Workers
	if w > n/2 {
		w = n / 2
	}
	if w < 2 {
		return runSequential(cfg, rt)
	}
	// Per-host work estimate: pebbles to compute, plus a baseline unit so
	// pure relay hosts still count toward chunk sizes.
	work := make([]int64, n)
	for p := 0; p < n; p++ {
		work[p] = 1 + int64(len(cfg.Assign.Owned[p]))*int64(cfg.Guest.Steps)
	}
	return runParallelWithCuts(cfg, rt, splitPositionsWork(cfg.Delays, work, w))
}

// runParallelWithCuts runs the parallel engine over an explicit cut vector
// (cuts[0] = 0 < cuts[1] < ... < cuts[w] = hostN). Any valid cut vector
// produces bit-identical results — the fuzz harness exercises exactly that.
func runParallelWithCuts(cfg *Config, rt *routeTable, cuts []int) (*Result, error) {
	n := cfg.hostN()
	w := len(cuts) - 1
	if w < 1 || cuts[0] != 0 || cuts[w] != n {
		return nil, fmt.Errorf("sim: invalid cut vector %v for %d hosts", cuts, n)
	}
	for i := 1; i <= w; i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, fmt.Errorf("sim: cut vector %v not strictly increasing", cuts)
		}
	}
	if w == 1 {
		return runSequential(cfg, rt)
	}
	chunks := make([]*chunk, w)
	var global int64
	for i := 0; i < w; i++ {
		chunks[i] = newChunk(cfg, rt, cuts[i], cuts[i+1])
		global += chunks[i].remaining
	}
	if global == 0 {
		return collect(cfg, chunks)
	}

	done := make(chan struct{})
	var doneOnce sync.Once
	var errMu sync.Mutex
	var firstErr error

	var gate *epochGate
	if cfg.ast != nil {
		gate = newEpochGate(w, chunks)
	}
	workers := make([]*worker, w)
	for i := 0; i < w; i++ {
		workers[i] = &worker{
			c: chunks[i], global: &global, done: done, doneOnce: &doneOnce,
			errMu: &errMu, err: &firstErr,
			notify: make(chan struct{}, 1),
		}
		if cfg.ast != nil {
			workers[i].ast = cfg.ast
			workers[i].gate = gate
			workers[i].nextB = int64(cfg.ast.policy.Epoch)
		}
	}
	if gate != nil {
		gate.workers = workers // terminal() scans every boundary ring
	}
	for i := 0; i < w-1; i++ {
		d := int64(cfg.Delays[cuts[i+1]-1])
		win := d / 2
		if win < 1 {
			win = 1
		}
		east := newSPSC[[]timedMsg](boundaryRingCap) // batches i -> i+1
		west := newSPSC[[]timedMsg](boundaryRingCap) // batches i+1 -> i
		eastFree := newSPSC[[]timedMsg](freeRingCap)
		westFree := newSPSC[[]timedMsg](freeRingCap)
		r := &side{
			delay: d, window: win, fromLeft: false,
			outbox: &chunks[i].outRight,
			in:     west, out: east, free: eastFree, retire: westFree,
			peer: workers[i+1], sentClock: 1,
		}
		l := &side{
			delay: d, window: win, fromLeft: true,
			outbox: &chunks[i+1].outLeft,
			in:     east, out: west, free: westFree, retire: eastFree,
			peer: workers[i], sentClock: 1,
		}
		r.pub.Store(1) // all workers start at step 1
		l.pub.Store(1)
		r.peerClock = &l.pub
		l.peerClock = &r.pub
		workers[i].right = r
		workers[i+1].left = l
	}

	// Watchdog: if no pebble completes for 6 s of wall time (three strikes
	// of 2 s) the run is wedged (a correct run is compute-bound and never
	// idles that long; genuine dataflow deadlocks usually hit the step cap
	// first, the watchdog is the backstop for anything else).
	idle := 6 * time.Second
	if cfg.watchdogIdle > 0 {
		idle = cfg.watchdogIdle
	}
	// The watchdog gets its own shard: its ticks are wall-clock events that
	// belong to no chunk.
	var wdTel *telemetry.Shard
	if cfg.em != nil {
		wdTel = cfg.Telemetry.NewShard("watchdog")
	}
	watchStop := make(chan struct{})
	go func() {
		last := atomic.LoadInt64(&global)
		strikes := 0
		ticker := time.NewTicker(idle / 3)
		defer ticker.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-ticker.C:
				if cfg.em != nil {
					wdTel.Inc(cfg.em.watchdogTicks)
				}
				cur := atomic.LoadInt64(&global)
				if cur == 0 {
					return
				}
				if cur == last {
					strikes++
					if strikes >= 3 {
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("sim: parallel engine made no progress with %d pebbles remaining (deadlock)", cur)
						}
						errMu.Unlock()
						doneOnce.Do(func() { close(done) })
						return
					}
				} else {
					strikes = 0
					last = cur
				}
			}
		}
	}()

	var wg sync.WaitGroup
	maxSteps := cfg.stepCap()
	for i, wk := range workers {
		wg.Add(1)
		labels := pprof.Labels("engine", "parallel",
			"chunk", fmt.Sprintf("%d:%d-%d", i, wk.c.lo, wk.c.hi))
		go func(wk *worker) {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				wk.loop(maxSteps)
			})
		}(wk)
	}
	wg.Wait()
	close(watchStop)

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if rem := atomic.LoadInt64(&global); rem != 0 {
		return nil, fmt.Errorf("sim: parallel engine finished with %d pebbles remaining", rem)
	}
	res, err := collect(cfg, chunks)
	if err != nil {
		return nil, err
	}
	res.Chunks = chunkGauges(workers)
	return res, nil
}

// chunkGauges snapshots per-worker engine gauges for the result.
func chunkGauges(workers []*worker) []obs.ChunkGauge {
	out := make([]obs.ChunkGauge, len(workers))
	for i, wk := range workers {
		g := obs.ChunkGauge{
			Lo: wk.c.lo, Hi: wk.c.hi,
			Steps:            wk.c.now,
			BlockedAtHorizon: wk.blockedAtHorizon,
			Blocked:          wk.blockedFor,
		}
		for j := range wk.c.procs {
			g.Pebbles += wk.c.procs[j].computed
		}
		for _, s := range []*side{wk.left, wk.right} {
			if s != nil {
				g.Flushes += s.flushes
				g.BatchedMsgs += s.sentMsgs
			}
		}
		out[i] = g
	}
	return out
}
