package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"latencyhide/internal/adapt"
	"latencyhide/internal/fault"
	"latencyhide/internal/guest"
)

// Differential test for refcounted knowledge retirement. The engine used to
// retire a stored value by scanning, on every compute, the frontier of each
// local column that consumes it; refRelease below keeps that scan verbatim
// as the oracle. The engine now keeps a pending-consumer count in the
// value's slot instead (chunk.retire, denseKnow.consume). Both must retire
// the same (dense, step) at the same compute and leave the knowledge stores'
// counters identical.

// refRelease retires (dense, step) from p.know once every consumer in cons
// (the owned indexes that read that column's values) has advanced past
// needing it (a consumer needs step s values while its next computed step
// is <= s+1).
func refRelease(p *proc, cons []int32, dense, step int32) {
	for _, idx := range cons {
		if p.cols[idx].next <= step+1 {
			return
		}
	}
	p.know.del(dense, step)
}

// refReleaseLists resolves p's consumer lists the way the engine used to at
// init: per owned index, the owned indexes consuming its own column's values
// and, parallel to its neighbors, those consuming each neighbor's values.
func refReleaseLists(p *proc) (consSelf [][]int32, consNb [][][]int32) {
	consumers := make(map[int32][]int32, len(p.cols))
	for i := range p.cols {
		consumers[p.cols[i].col] = append(consumers[p.cols[i].col], int32(i))
		for _, nb := range p.cold[i].neighbors {
			consumers[nb] = append(consumers[nb], int32(i))
		}
	}
	consSelf = make([][]int32, len(p.cols))
	consNb = make([][][]int32, len(p.cols))
	for i := range p.cols {
		consSelf[i] = consumers[p.cols[i].col]
		consNb[i] = make([][]int32, len(p.cold[i].neighbors))
		for j, nb := range p.cold[i].neighbors {
			consNb[i][j] = consumers[nb]
		}
	}
	return consSelf, consNb
}

// knowCounters is the knowledge store's accounting.
type knowCounters struct {
	grows, shrinks                       int64
	live, livePeak, slotsPeak, retireLag int32
}

func countersOf(k *denseKnow) knowCounters {
	return knowCounters{grows: k.grows, shrinks: k.shrinks, live: k.live,
		livePeak: k.livePeak, slotsPeak: k.slotsPeak, retireLag: k.retireLag}
}

func (a *knowCounters) add(b knowCounters) {
	a.grows += b.grows
	a.shrinks += b.shrinks
	a.live += b.live
	a.livePeak += b.livePeak
	a.slotsPeak += b.slotsPeak
	a.retireLag += b.retireLag
}

// retireRecord is one compute's retirement: which step t-1 values it
// retired, and the counters of the computing store and of the whole chunk
// right after.
type retireRecord struct {
	now         int64
	pos, idx, t int32
	retired     []int32 // dense indexes, in the order the column reads them
	store       knowCounters
	chunk       knowCounters
}

// runRetireLogged runs cfg on the sequential engine with the retirement
// either the engine's own (oracle=false) or refRelease, logging every
// compute's retirement, and returns the log, the result and every store's
// final counters.
func runRetireLogged(t *testing.T, cfg Config, oracle bool) ([]retireRecord, *Result, []knowCounters, error) {
	t.Helper()
	var (
		log  []retireRecord
		last *chunk
	)
	type lists struct {
		self [][]int32
		nb   [][][]int32
	}
	resolved := map[*proc]*lists{}
	cfg.retireOverride = func(c *chunk, p *proc, idx, tt int32) {
		last = c
		oc := &p.cols[idx]
		nbDense := c.nbDense[oc.dep : oc.dep+oc.deg]
		refs := append([]int32{oc.selfDense}, nbDense...)
		pre := make([]bool, len(refs))
		for i, d := range refs {
			pre[i] = p.know.has(d, tt-1)
		}
		if oracle {
			l := resolved[p]
			if l == nil {
				l = &lists{}
				l.self, l.nb = refReleaseLists(p)
				resolved[p] = l
			}
			refRelease(p, l.self[idx], oc.selfDense, tt-1)
			for j, d := range nbDense {
				refRelease(p, l.nb[idx][j], d, tt-1)
			}
		} else {
			c.retire(p, oc, tt-1)
		}
		rec := retireRecord{now: c.now, pos: p.pos, idx: idx, t: tt, store: countersOf(&p.know)}
	refs:
		for i, d := range refs {
			if !pre[i] || p.know.has(d, tt-1) {
				continue
			}
			for _, seen := range rec.retired {
				if seen == d {
					continue refs
				}
			}
			rec.retired = append(rec.retired, d)
		}
		for i := range c.procs {
			rec.chunk.add(countersOf(&c.procs[i].know))
		}
		log = append(log, rec)
	}
	cfg.Workers = 0
	cfg.Check = true
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var final []knowCounters
	if last != nil {
		for i := range last.procs {
			final = append(final, countersOf(&last.procs[i].know))
		}
	}
	return log, res, final, nil
}

// retireDifferential runs cfg under both retirements and fails on the first
// compute where they disagree. It reports how many values the run retired
// and the chunk's summed counters at the end.
func retireDifferential(t *testing.T, cfg Config, label string) (retired int, end knowCounters, ok bool) {
	t.Helper()
	got, gres, gfinal, err := runRetireLogged(t, cfg, false)
	if err != nil {
		var unc *UncomputableError
		if errors.As(err, &unc) {
			return 0, end, false
		}
		t.Fatalf("%s: refcounted run: %v", label, err)
	}
	want, wres, wfinal, err := runRetireLogged(t, cfg, true)
	if err != nil {
		t.Fatalf("%s: oracle run: %v", label, err)
	}
	if !reflect.DeepEqual(gres, wres) {
		t.Fatalf("%s: results differ:\nrefcount %+v\noracle   %+v", label, gres, wres)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d computes retired under refcount, %d under the oracle", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: compute %d differs:\nrefcount %+v\noracle   %+v", label, i, got[i], want[i])
		}
		retired += len(got[i].retired)
	}
	if !reflect.DeepEqual(gfinal, wfinal) {
		t.Fatalf("%s: final store counters differ:\nrefcount %+v\noracle   %+v", label, gfinal, wfinal)
	}
	for _, c := range gfinal {
		end.add(c)
	}
	return retired, end, true
}

// TestRetireMatchesConsumerScan drives the differential over random guests,
// replica placements and delays under fault-free, jitter, jitter+outage,
// slowdown and crash-stop plans, with and without standby replicas and the
// adaptive controller, plus a churn configuration known to activate
// standbys (whose pinned history must then retire).
func TestRetireMatchesConsumerScan(t *testing.T) {
	plans := []*fault.Plan{
		nil,
		{Seed: 5, Jitters: []fault.Jitter{{Link: -1, Amp: 5, Prob: 0.5}}},
		{Seed: 6, Jitters: []fault.Jitter{{Link: -1, Amp: 3, Prob: 0.4}},
			Outages: []fault.Outage{{Link: -1, Window: 6, Frac: 0.3}}},
		{Seed: 7, Slowdowns: []fault.Slowdown{{Host: -1, Window: 8, Frac: 0.4, Limit: 0}}},
		{Seed: 8, Crashes: []fault.Crash{{Host: 1, Step: 6}}},
	}
	pol := &adapt.Policy{Epoch: 8, Threshold: 0.25, MaxExtra: 1, Budget: 6}
	r := rand.New(rand.NewSource(77))
	var retired, runs int
	var total knowCounters
	for trial := 0; trial < 80; trial++ {
		hostN := 2 + r.Intn(10)
		m := 1 + r.Intn(24)
		g := randomGuest(r, m)
		a, err := randomAssignment(r, hostN, m)
		if err != nil {
			t.Fatal(err)
		}
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(1<<uint(r.Intn(5)))
		}
		cfg := Config{
			Delays: delays,
			Guest:  guest.Spec{Graph: g, Steps: 2 + r.Intn(20), Seed: r.Int63()},
			Assign: a,
			Faults: plans[trial%len(plans)],
		}
		if trial%3 == 0 {
			cfg.Adapt = pol
		}
		n, end, ok := retireDifferential(t, cfg, "trial")
		if ok {
			runs++
			retired += n
			total.add(end)
		}
	}
	churn := adaptiveConfig(t, 16, 32)
	churn.Faults = &fault.Plan{Seed: 7, Churns: []fault.Churn{{Link: -1, Up: 12, Down: 4}}}
	churn.Adapt = &adapt.Policy{Epoch: 16, Threshold: 0.25, MaxExtra: 1, Budget: 8}
	n, end, _ := retireDifferential(t, churn, "churn")
	retired += n
	total.add(end)
	if runs < 60 || retired == 0 || total.grows == 0 || total.shrinks == 0 {
		t.Fatalf("differential too weak: %d runs, %d retirements, %d grows, %d shrinks",
			runs, retired, total.grows, total.shrinks)
	}
}

// The per-pebble path touches one ownedCol per compute and per unblocked
// waiter; keep it within a single cache line.
func TestOwnedColFitsCacheLine(t *testing.T) {
	if sz := unsafe.Sizeof(ownedCol{}); sz > 64 {
		t.Fatalf("ownedCol is %d bytes, want <= 64", sz)
	}
}
