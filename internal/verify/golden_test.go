package verify

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"latencyhide/internal/assign"
	"latencyhide/internal/embedding"
	"latencyhide/internal/guest"
	"latencyhide/internal/network"
	"latencyhide/internal/obs"
	"latencyhide/internal/sim"
	"latencyhide/internal/tree"
)

// Golden event-stream hashes. Every other engine test compares two engines
// or an engine against an in-package oracle, so a change that moves both
// sides together (a layout refactor of shared state, say) passes them all.
// These pins were taken from the engine before the refcounted-retirement
// and hot/cold column-layout refactor and must never move unless the
// simulated schedule is meant to change.
const (
	goldenCorpusN    = 200
	goldenCorpusHash = 0xeaff2d1689bb797c
	goldenLargeHash  = 0xf4323353e4042a0f
)

// streamHash folds canonical obs streams and run aggregates into an FNV-64a
// hash. Each event kind writes a tag (1 compute, 2 inject, 3 deliver,
// 4 fault, 5 adapt) followed by its fields.
type streamHash struct {
	h   hash.Hash64
	buf [8]byte
	n   int64
}

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (r *streamHash) word(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(r.buf[:], uint64(v))
		r.h.Write(r.buf[:])
	}
}

// events folds one run's canonical stream into the hash.
func (r *streamHash) events(evs []obs.Event) {
	for i := range evs {
		e := &evs[i]
		r.n++
		switch e.Kind {
		case obs.KindCompute:
			r.word(1, e.Step, int64(e.Proc), int64(e.Col), int64(e.GStep))
		case obs.KindInject:
			r.word(2, e.Step, int64(e.Proc), int64(e.Link), int64(e.Dir), int64(e.Route), int64(e.Col), int64(e.GStep))
		case obs.KindDeliver:
			r.word(3, e.Step, int64(e.Proc), int64(e.Route), int64(e.Col), int64(e.GStep))
		case obs.KindFault:
			r.word(4, e.Step, int64(e.Fault), int64(e.Proc), int64(e.Link), e.Dur)
		case obs.KindAdapt:
			r.word(5, e.Step, int64(e.Proc), int64(e.Col))
		default:
			panic("unexpected event kind " + e.Kind.String())
		}
	}
}

// result folds a run's aggregates into the hash.
func (r *streamHash) result(res *sim.Result) {
	r.word(res.HostSteps, res.PebblesComputed, res.GuestWork, res.Messages,
		res.MessageHops, res.DeliveredValues, int64(res.MaxQueueDepth),
		int64(res.Load), int64(res.Bandwidth), int64(res.AdaptActivations),
		int64(math.Float64bits(res.Slowdown)), int64(math.Float64bits(res.Redundancy)), r.n)
}

// TestGoldenCorpusStream pins the sequential engine's canonical stream and
// aggregates over the first goldenCorpusN scenarios of seed 1's stream, which
// spans every fault regime, adaptive replication and crash-stop plans.
func TestGoldenCorpusStream(t *testing.T) {
	rec := newStreamHash()
	for i := 0; i < goldenCorpusN; i++ {
		sc := Generate(1, i)
		cfg, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc, err)
		}
		buf := obs.NewBuffer()
		cfg.Check = true
		cfg.Recorder = buf
		res, err := sim.Run(*cfg)
		if err != nil {
			t.Fatalf("scenario %d (%s): %v", i, sc, err)
		}
		rec.events(buf.Events())
		rec.result(res)
	}
	if got := rec.h.Sum64(); got != goldenCorpusHash {
		t.Fatalf("corpus stream hash %#x, want %#x (%d events)", got, uint64(goldenCorpusHash), rec.n)
	}
}

// TestGoldenLargeStream pins a 256-host run shaped like `latencysim run`: a
// random NOW, its line embedding, the c=4 interval tree and the two-level
// assignment, 160 guest steps on the sequential engine.
func TestGoldenLargeStream(t *testing.T) {
	const hosts, steps, seed = 256, 160, 1
	g := network.RandomNOW(hosts, 4, network.ExpDelay{Mean: 3}, seed)
	line, err := embedding.Embed(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Build(line.Delays, 4)
	a, err := assign.TwoLevel(tr, 2, max(1, int(math.Round(math.Sqrt(tr.Dave)))))
	if err != nil {
		t.Fatal(err)
	}
	buf := obs.NewBuffer()
	res, err := sim.Run(sim.Config{
		Delays:   line.Delays,
		Guest:    guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: steps, Seed: seed},
		Assign:   a,
		Check:    true,
		Recorder: buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := newStreamHash()
	rec.events(buf.Events())
	rec.result(res)
	if got := rec.h.Sum64(); got != goldenLargeHash {
		t.Fatalf("large stream hash %#x, want %#x (%d events, %d pebbles)",
			got, uint64(goldenLargeHash), rec.n, res.PebblesComputed)
	}
}
