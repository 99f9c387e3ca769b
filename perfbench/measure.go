package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"latencyhide/internal/telemetry"
)

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced pass's metrics, measured on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_s.p50", "s"},
	{"pebbles_per_s", "1/s"},
	{"scenarios_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"slowdown", "ratio"},
}

// perLayer are the traced pass's metrics that every workload measures; they
// go into the result object.
var perLayer = []metricSpec{
	{"assign.build_s", "s"}, {"assign.columns", "count"}, {"assign.load", "count"}, {"assign.max_copies", "count"},
	{"sim.run_s", "s"}, {"sim.ns_per_pebble", "ns"}, {"sim.pebbles", "count"}, {"sim.redundancy", "ratio"},
	{"sim.messages", "count"}, {"sim.hops", "count"}, {"sim.delivered", "count"}, {"sim.max_queue_depth", "count"},
	{"sim.host_steps", "count"},
	{"sim.chunk.blocked_s", "s"}, {"sim.chunk.blocked_share", "ratio"}, {"sim.chunk.flushes", "count"},
	{"sim.chunk.msgs_per_flush", "ratio"}, {"sim.chunk.pebble_imbalance", "ratio"},
	{"sim.tel.cal_due_events", "count"}, {"sim.tel.waiter_pool_grows", "count"}, {"sim.tel.know_ring_grows", "count"},
	{"sim.tel.know_ring_shrinks", "count"}, {"sim.tel.boundary_flushes", "count"}, {"sim.tel.worker_parks", "count"},
	{"sim.tel.ring_full_stalls", "count"}, {"sim.tel.know_live_peak", "count"}, {"sim.tel.route_bytes", "B"},
	{"sim.tel.know_ring_bytes_peak", "B"},
	{"guest.reference_s", "s"},
	{"go.alloc_bytes_per_pebble", "B"}, {"go.alloc_bytes_per_op", "B"}, {"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_s", "s"},
	{"trace.overhead_s", "s"},
}

// workloadLayers are the per-layer metrics of layers only some workloads
// call: network, embedding and tree on run-*, obs and verify on
// run-observed and verify-soak.
var workloadLayers = []metricSpec{
	{"network.gen_s", "s"}, {"embedding.embed_s", "s"}, {"embedding.dilation", "count"},
	{"tree.build_s", "s"}, {"tree.live_procs", "count"},
	{"obs.record_s", "s"}, {"obs.events", "count"}, {"obs.analyze_s", "s"}, {"obs.stalls_s", "s"},
	{"obs.critpath_s", "s"}, {"obs.ns_per_event", "ns"},
	{"obs.stall.busy", "proc_steps"}, {"obs.stall.dependency", "proc_steps"},
	{"obs.stall.bandwidth", "proc_steps"}, {"obs.stall.idle", "proc_steps"},
	{"verify.build_s", "s"}, {"verify.check_s", "s"}, {"verify.oracle_s", "s"}, {"verify.relations_s", "s"},
	{"verify.events", "count"}, {"verify.relations", "count"}, {"verify.violations", "count"},
}

// tally counts one pass kind's ops and keeps their timings.
type tally struct {
	attempted, failed int
	errs              []string
	setup, op, total  []float64 // seconds, correct ops only
	pebbles           int64
	slowdown          float64 // summed over correct ops
	ref               []*fingerprint
}

func newTally(inputs int) *tally { return &tally{ref: make([]*fingerprint, inputs)} }

// record counts op i's outcome. An op fails on an error, or when its
// fingerprint differs from the first op on the same input.
func (t *tally) record(i int, o *outcome, err error) {
	t.attempted++
	if err == nil {
		if t.ref[i] == nil {
			t.ref[i] = &o.fp
		} else if *t.ref[i] != o.fp {
			err = fmt.Errorf("input %d: fingerprint %+v differs from the first op's %+v", i, o.fp, *t.ref[i])
		}
	}
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.setup = append(t.setup, o.setup.Seconds())
	t.op = append(t.op, o.op.Seconds())
	t.total = append(t.total, (o.setup + o.op).Seconds())
	t.pebbles += o.pebbles
	t.slowdown += o.slowdown
}

// pass runs every input once. With a tracer each op is traced and followed
// by its split calls, which count towards the op's correctness but not its
// time.
func (b *bench) pass(tr *tracer, l layers, t *tally) {
	for i := 0; i < b.inputs; i++ {
		tr.startOp(t.attempted)
		s := tr.begin("op")
		o, err := b.op(i, tr, l)
		tr.end(s)
		if err == nil && tr != nil {
			s = tr.begin("split")
			err = b.split(o, tr, l)
			tr.end(s)
		}
		t.record(i, o, err)
	}
}

// measureUntraced runs whole passes for at least d and returns the
// end-to-end metrics. Peak RSS is reset first, so it covers only this
// workload's ops.
func measureUntraced(b *bench, d time.Duration) (*tally, map[string]float64) {
	t := newTally(b.inputs)
	telemetry.ResetPeakRSS()
	for start := time.Now(); t.attempted == 0 || time.Since(start) < d; {
		runtime.GC()
		b.pass(nil, nil, t)
	}
	return t, endToEndMetrics(t, float64(telemetry.ReadPeakRSS())/1e6)
}

func endToEndMetrics(t *tally, rssMB float64) map[string]float64 {
	m := map[string]float64{"peak_rss_mb": rssMB}
	if len(t.op) == 0 {
		return m
	}
	opSum := sum(t.op)
	m["setup_s"] = quantile(t.setup, 0.5)
	m["op_s.p50"] = quantile(t.op, 0.5)
	// A p95 needs at least ten samples beyond it. Only verify-soak runs hold
	// that many ops, so it is a report line there and not in endToEnd.
	if len(t.op) >= 200 {
		m["op_s.p95"] = quantile(t.op, 0.95)
	}
	m["pebbles_per_s"] = float64(t.pebbles) / opSum
	m["scenarios_per_s"] = float64(len(t.op)) / opSum
	m["slowdown"] = t.slowdown / float64(len(t.op))
	return m
}

// measureTraced alternates an untraced and a traced pass for at least d.
// The untraced passes give the Go runtime's per-op costs and the baseline
// for the trace overhead; the traced passes give every other per-layer
// metric. It returns both tallies, the metrics and the tracer.
func measureTraced(b *bench, d time.Duration) (untraced, traced *tally, m map[string]float64, tr *tracer) {
	untraced, traced, tr = newTally(b.inputs), newTally(b.inputs), newTracer()
	l := layers{}
	var allocs, gcs, pauseNs uint64
	var ms0, ms1 runtime.MemStats
	for start := time.Now(); traced.attempted == 0 || time.Since(start) < d; {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		b.pass(nil, nil, untraced)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		pauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		runtime.GC()
		b.pass(tr, l, traced)
	}
	m = layerMetrics(tr.selfTimes(), l, traced.attempted)
	if ops := float64(untraced.attempted); ops > 0 {
		m["go.alloc_bytes_per_op"] = float64(allocs) / ops
		m["go.gc_cycles_per_op"] = float64(gcs) / ops
		m["go.gc_pause_s"] = float64(pauseNs) / 1e9 / ops
		m["go.alloc_bytes_per_pebble"] = ratio(float64(allocs), float64(untraced.pebbles))
	}
	m["trace.overhead_s"] = quantile(tr.durations("op"), 0.5) - quantile(untraced.total, 0.5)
	return untraced, traced, m, tr
}

// layerMetrics turns the traced pass's self times and counts into the
// per-layer metrics, each a mean per traced op unless it is a ratio or a
// peak. Metrics of layers the workload never called are left out.
func layerMetrics(self map[string]time.Duration, l layers, ops int) map[string]float64 {
	m := map[string]float64{}
	n := float64(max(ops, 1))
	perOp := func(d time.Duration) float64 { return d.Seconds() / n }
	for metric, span := range map[string]string{
		"network.gen_s": "network.gen", "embedding.embed_s": "embedding.embed", "tree.build_s": "tree.build",
		"assign.build_s": "assign.build", "sim.run_s": "sim.run", "guest.reference_s": "guest.reference",
		"obs.analyze_s": "obs.analyze", "obs.stalls_s": "obs.stalls", "obs.critpath_s": "obs.critpath",
		"verify.build_s": "verify.build", "verify.check_s": "verify.check_scenario", "verify.oracle_s": "verify.oracle",
	} {
		if d, ok := self[span]; ok {
			m[metric] = perOp(d)
		}
	}
	for _, k := range []string{"assign.columns", "assign.load", "tree.live_procs", "sim.pebbles", "sim.messages",
		"sim.hops", "sim.delivered", "sim.host_steps", "sim.chunk.flushes", "obs.events", "obs.stall.busy",
		"obs.stall.dependency", "obs.stall.bandwidth", "obs.stall.idle", "verify.events", "verify.relations"} {
		if v, ok := l[k]; ok {
			m[k] = v / n
		}
	}
	for _, k := range []string{"assign.max_copies", "embedding.dilation", "sim.max_queue_depth", "verify.violations"} {
		if v, ok := l[k]; ok {
			m[k] = v
		}
	}
	for _, name := range telCounters {
		m["sim.tel."+name] = l["sim.tel."+name] / n
	}
	for _, name := range telGauges {
		m["sim.tel."+name] = l["sim.tel."+name]
	}
	m["sim.ns_per_pebble"] = ratio(float64(self["sim.run"]), l["sim.pebbles"])
	m["sim.redundancy"] = ratio(l["sim.pebbles"], l["sim.guest_work"])
	m["sim.chunk.blocked_s"] = l["sim.chunk.blocked_ns"] / 1e9 / n
	m["sim.chunk.blocked_share"] = ratio(l["sim.chunk.blocked_ns"], l["sim.chunk.wall_ns"])
	m["sim.chunk.msgs_per_flush"] = ratio(l["sim.chunk.batched_msgs"], l["sim.chunk.flushes"])
	m["sim.chunk.pebble_imbalance"] = ratio(l["sim.chunk.imbalance_sum"], l["sim.chunk.runs"])
	if _, ok := l["obs.events"]; ok {
		m["obs.ns_per_event"] = ratio(float64(self["obs.analyze"]+self["obs.stalls"]+self["obs.critpath"]), l["obs.events"])
	}
	// Recorder on minus recorder off, on the same input and engine.
	if d, ok := self["sim.run_recorded"]; ok {
		m["obs.record_s"] = perOp(d - self["sim.run_unrecorded"])
	} else if d, ok := self["sim.run_observed"]; ok {
		m["obs.record_s"] = perOp(d - self["sim.run_unrecorded"])
	}
	// CheckScenario minus the parts of it timed on their own.
	if d, ok := self["verify.check_scenario"]; ok {
		m["verify.relations_s"] = perOp(d - self["verify.build"] - self["sim.run_recorded"] -
			self["verify.oracle"] - self["sim.run_parallel"])
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
