package obs

import "sort"

// interval is an inclusive step range [lo, hi].
type interval struct{ lo, hi int64 }

// mergeIntervals sorts and coalesces overlapping/adjacent intervals.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		return ivs[i].hi < ivs[j].hi
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi+1 {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// pathKey identifies one multicast message instance: the pebbles of (route,
// gstep) travel as a single relayed message.
type pathKey struct {
	route int32
	gstep int32
}

// hop is one recorded link crossing of a message, with derived queueing
// facts.
type hop struct {
	link      int32
	dir       int8
	inject    int64 // step the value was injected (left the queue)
	enqueue   int64 // step it entered the queue (producer compute or relay arrival)
	arrivePos int32 // position it reaches after crossing
}

// msgPath is a message's full relay chain in travel order.
type msgPath struct {
	sender  int32
	compute int64 // producer's compute step (first enqueue)
	hops    []hop
}

type procKey struct {
	proc  int32
	col   int32
	gstep int32
}

type delivered struct {
	step  int64
	route int32
}

// Analysis precomputes the per-processor and per-message structures every
// derived instrument shares. Build one per recorded run.
type Analysis struct {
	Info   RunInfo
	events []Event

	computeAt map[procKey]int64     // local compute step of (proc, col, gstep)
	deliverAt map[procKey]delivered // delivery of (col, gstep) into proc
	paths     map[pathKey]*msgPath

	procBusy [][]int64    // sorted distinct compute steps per position
	queueIv  [][]interval // merged queue-residency intervals of messages later delivered to the position
	// faultIv holds the merged per-position fault exposure: the position's
	// own slowdown/crash spans, plus the outage spans of links that held up
	// messages later delivered to it. Tiling priority: fault > bandwidth >
	// dependency.
	faultIv [][]interval
}

// Analyze builds the shared analysis structures from a canonical event
// stream and its run facts in one pass, in stream order. It relies on the
// canonical order (see Canonicalize): each position's computes and each
// message's hops arrive in step order, and every hop and outage a delivery
// waited on comes before that delivery, so nothing is sorted or revisited
// except the per-position intervals, which are merged at the end.
func Analyze(events []Event, info RunInfo) *Analysis {
	// A finished run computes every assigned pebble once: size the compute
	// map for that up front rather than regrow it.
	var pebbles int64
	for _, n := range info.ProcPebbles {
		pebbles += n
	}
	a := &Analysis{
		Info:      info,
		events:    events,
		computeAt: make(map[procKey]int64, min(pebbles, int64(len(events)))),
		deliverAt: make(map[procKey]delivered),
		paths:     make(map[pathKey]*msgPath),
		procBusy:  make([][]int64, info.HostN),
		queueIv:   make([][]interval, info.HostN),
		faultIv:   make([][]interval, info.HostN),
	}
	outageIv := map[int32][]interval{}
	for i := range events {
		e := &events[i]
		if e.Kind == KindFault {
			switch e.Fault {
			case FaultSlow, FaultCrash:
				if e.Proc >= 0 && int(e.Proc) < info.HostN {
					a.faultIv[e.Proc] = append(a.faultIv[e.Proc],
						interval{e.Step, e.Step + e.Dur - 1})
				}
			case FaultOutage:
				outageIv[e.Link] = append(outageIv[e.Link],
					interval{e.Step, e.Step + e.Dur - 1})
			}
			continue
		}
		if e.Proc < 0 || int(e.Proc) >= info.HostN {
			continue
		}
		switch e.Kind {
		case KindCompute:
			a.computeAt[procKey{e.Proc, e.Col, e.GStep}] = e.Step
			// ComputePerStep > 1 computes several pebbles in one step.
			if b := a.procBusy[e.Proc]; len(b) == 0 || b[len(b)-1] != e.Step {
				a.procBusy[e.Proc] = append(b, e.Step)
			}
		case KindInject:
			// The producer enqueues at its compute step, a relay at the
			// previous hop's arrival step.
			k := pathKey{e.Route, e.GStep}
			p := a.paths[k]
			var enqueue int64
			if p == nil {
				sender := e.Link
				if e.Dir < 0 {
					sender = e.Link + 1
				}
				p = &msgPath{sender: sender, compute: a.computeAt[procKey{sender, e.Col, e.GStep}]}
				a.paths[k] = p
				enqueue = p.compute
			} else {
				last := p.hops[len(p.hops)-1]
				enqueue = last.inject + int64(a.delay(last.link))
			}
			arrive := e.Link
			if e.Dir > 0 {
				arrive = e.Link + 1
			}
			p.hops = append(p.hops, hop{link: e.Link, dir: e.Dir, inject: e.Step, enqueue: enqueue, arrivePos: arrive})
		case KindDeliver:
			a.deliverAt[procKey{e.Proc, e.Col, e.GStep}] = delivered{step: e.Step, route: e.Route}
			if p := a.paths[pathKey{e.Route, e.GStep}]; p != nil {
				a.addQueueing(e.Proc, p, outageIv)
			}
		}
	}
	for p := range a.queueIv {
		a.queueIv[p] = mergeIntervals(a.queueIv[p])
		a.faultIv[p] = mergeIntervals(a.faultIv[p])
	}
	return a
}

// addQueueing records, for a message delivered to proc, the steps it spent
// queued on the hops between its producer and proc. Queue steps that overlap
// an outage on the hop's link are the fault's doing, not bandwidth
// contention: they also go into the receiver's fault exposure, which
// outranks the queue intervals when stalls are tiled.
func (a *Analysis) addQueueing(proc int32, p *msgPath, outageIv map[int32][]interval) {
	for _, h := range p.hops {
		if h.inject > h.enqueue {
			q := interval{h.enqueue, h.inject - 1}
			a.queueIv[proc] = append(a.queueIv[proc], q)
			for _, ov := range outageIv[h.link] {
				lo, hi := max(q.lo, ov.lo), min(q.hi, ov.hi)
				if lo <= hi {
					a.faultIv[proc] = append(a.faultIv[proc], interval{lo, hi})
				}
			}
		}
		if h.arrivePos == proc {
			break
		}
	}
}

func (a *Analysis) delay(link int32) int {
	if link < 0 || int(link) >= len(a.Info.Delays) {
		return 1
	}
	return a.Info.Delays[link]
}

// splitBy walks [lo, hi] against sorted disjoint intervals, calling hit for
// the covered sub-ranges and miss for the rest (both in step order, only on
// non-empty ranges).
func splitBy(ivs []interval, lo, hi int64, hit, miss func(lo, hi int64)) {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].hi >= lo })
	cur := lo
	for ; i < len(ivs) && ivs[i].lo <= hi; i++ {
		blo, bhi := ivs[i].lo, ivs[i].hi
		if blo < cur {
			blo = cur
		}
		if bhi > hi {
			bhi = hi
		}
		if cur <= blo-1 {
			miss(cur, blo-1)
		}
		hit(blo, bhi)
		cur = bhi + 1
	}
	if cur <= hi {
		miss(cur, hi)
	}
}

// stallGaps walks position p's stalled steps — the maximal runs of steps in
// [1, last own compute] with work remaining but nothing computed — in step
// order, tiled by cause with priority fault > bandwidth > dependency:
// fault-exposed sub-spans first (an injected fault held this position or its
// inbound traffic up), then bandwidth-stalled sub-spans (a value later
// delivered here was sitting in an injection queue), then the
// dependency-stalled remainder. emit gets each non-empty sub-span.
func (a *Analysis) stallGaps(p int, emit func(lo, hi int64, cause Cause)) {
	qivs, fivs := a.queueIv[p], a.faultIv[p]
	prev := int64(0) // step 0 is initial state; work exists from step 1
	for _, b := range a.procBusy[p] {
		if b > prev+1 {
			splitBy(fivs, prev+1, b-1,
				func(l, h int64) { emit(l, h, CauseFault) },
				func(l, h int64) {
					splitBy(qivs, l, h,
						func(l2, h2 int64) { emit(l2, h2, CauseBandwidth) },
						func(l2, h2 int64) { emit(l2, h2, CauseDependency) })
				})
		}
		prev = b
	}
}

// StallSpans derives KindStall events: every position's stall sub-spans (see
// stallGaps), returned in (step, proc) order.
func (a *Analysis) StallSpans() []Event {
	var spans []Event
	for p := range a.procBusy {
		proc := int32(p)
		a.stallGaps(p, func(lo, hi int64, cause Cause) {
			spans = append(spans, Event{
				Step: lo, Kind: KindStall, Proc: proc, Link: -1, Route: -1,
				Dur: hi - lo + 1, Cause: cause,
			})
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Step != spans[j].Step {
			return spans[i].Step < spans[j].Step
		}
		return spans[i].Proc < spans[j].Proc
	})
	return spans
}

// StallBreakdown attributes every processor-step of the run to exactly one
// of: busy (computed a pebble), idle (no work left), dependency-stalled,
// bandwidth-stalled or fault-stalled.
// Busy + Idle + Dependency + Bandwidth + Fault == ProcSteps.
type StallBreakdown struct {
	ProcSteps  int64 // HostN x HostSteps
	Busy       int64
	Idle       int64
	Dependency int64
	Bandwidth  int64
	Fault      int64
}

// Stalled is the total stalled processor-steps.
func (s StallBreakdown) Stalled() int64 { return s.Dependency + s.Bandwidth + s.Fault }

// BandwidthShare is the fraction of stalled processor-steps attributed to
// bandwidth (0 when nothing stalled).
func (s StallBreakdown) BandwidthShare() float64 {
	if st := s.Stalled(); st > 0 {
		return float64(s.Bandwidth) / float64(st)
	}
	return 0
}

// Stalls computes the stall-cause breakdown over the whole run: a position
// is idle after its last compute, and its stall sub-spans are tallied by
// cause as stallGaps walks them.
func (a *Analysis) Stalls() StallBreakdown {
	procSteps := int64(a.Info.HostN) * a.Info.HostSteps
	var stalled [CauseFault + 1]int64
	tally := func(lo, hi int64, cause Cause) { stalled[cause] += hi - lo + 1 }
	sb := StallBreakdown{ProcSteps: procSteps, Idle: procSteps}
	for p, busy := range a.procBusy {
		if len(busy) == 0 {
			continue
		}
		sb.Busy += int64(len(busy))
		sb.Idle -= busy[len(busy)-1]
		a.stallGaps(p, tally)
	}
	sb.Dependency = stalled[CauseDependency]
	sb.Bandwidth = stalled[CauseBandwidth]
	sb.Fault = stalled[CauseFault]
	return sb
}

// Heatmap is the per-processor compute timeline: Counts[p][w] is the number
// of pebbles position p computed during host steps
// [w*Window+1, (w+1)*Window].
type Heatmap struct {
	Window int
	Counts [][]int64
}

// Heatmap bins compute events into windows of the given size (minimum 1).
func (a *Analysis) Heatmap(window int) *Heatmap {
	if window < 1 {
		window = 1
	}
	windows := int((a.Info.HostSteps-1)/int64(window)) + 1
	if a.Info.HostSteps <= 0 {
		windows = 0
	}
	h := &Heatmap{Window: window, Counts: make([][]int64, a.Info.HostN)}
	for p := range h.Counts {
		h.Counts[p] = make([]int64, windows)
	}
	for i := range a.events {
		e := &a.events[i]
		if e.Kind != KindCompute || int(e.Proc) >= a.Info.HostN {
			continue
		}
		w := int((e.Step - 1) / int64(window))
		if w >= 0 && w < windows {
			h.Counts[e.Proc][w]++
		}
	}
	return h
}

// LinkGauge summarises one directed host link over the run.
type LinkGauge struct {
	Link  int  // line link index: joins positions Link and Link+1
	Dir   int8 // +1 rightward, -1 leftward
	Delay int
	BW    int
	// Injects is the number of pebble values injected (bandwidth consumed).
	Injects int64
	// Utilization is Injects / (BW x HostSteps): the fraction of injection
	// capacity used.
	Utilization float64
	// PeakQueue is the deepest injection backlog observed (messages queued
	// at once, counted at enqueue time).
	PeakQueue int
	// QueueSteps is the total steps messages spent waiting in this link's
	// injection queue.
	QueueSteps int64
}

// LinkGauges derives per-directed-link bandwidth and queue gauges, ordered
// by (link, rightward-first).
func (a *Analysis) LinkGauges() []LinkGauge {
	n := len(a.Info.Delays)
	gauges := make([]LinkGauge, 2*n)
	type edge struct {
		step  int64
		delta int
	}
	sweeps := make([][]edge, 2*n)
	idx := func(link int32, dir int8) int {
		i := int(link) * 2
		if dir < 0 {
			i++
		}
		return i
	}
	bw := max(a.Info.Bandwidth, 1)
	for i := 0; i < n; i++ {
		gauges[2*i] = LinkGauge{Link: i, Dir: 1, Delay: a.Info.Delays[i], BW: bw}
		gauges[2*i+1] = LinkGauge{Link: i, Dir: -1, Delay: a.Info.Delays[i], BW: bw}
	}
	for _, p := range a.paths {
		for _, h := range p.hops {
			if h.link < 0 || int(h.link) >= n {
				continue
			}
			g := &gauges[idx(h.link, h.dir)]
			g.Injects++
			g.QueueSteps += h.inject - h.enqueue
			sweeps[idx(h.link, h.dir)] = append(sweeps[idx(h.link, h.dir)],
				edge{step: h.enqueue, delta: 1}, edge{step: h.inject, delta: -1})
		}
	}
	for i := range gauges {
		g := &gauges[i]
		if a.Info.HostSteps > 0 && g.BW > 0 {
			g.Utilization = float64(g.Injects) / (float64(g.BW) * float64(a.Info.HostSteps))
		}
		sw := sweeps[i]
		// +1 before -1 at equal steps: depth is measured at enqueue time,
		// matching the engine's peak-queue accounting.
		sort.Slice(sw, func(x, y int) bool {
			if sw[x].step != sw[y].step {
				return sw[x].step < sw[y].step
			}
			return sw[x].delta > sw[y].delta
		})
		depth, peak := 0, 0
		for _, e := range sw {
			depth += e.delta
			if depth > peak {
				peak = depth
			}
		}
		g.PeakQueue = peak
	}
	return gauges
}
