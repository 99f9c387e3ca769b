package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
)

// splitPositions splits [0, n) into w contiguous chunks assuming uniform
// per-host work, nudging each cut onto the largest-delay link within a
// window around the even split (larger boundary delay = larger lookahead).
func splitPositions(delays []int, w int) []int {
	return splitPositionsWork(delays, nil, w)
}

// checkCuts asserts the structural invariants every cut vector must satisfy:
// cuts[0] = 0 < cuts[1] < ... < cuts[w] = n.
func checkCuts(t *testing.T, cuts []int, n, w int) {
	t.Helper()
	if len(cuts) != w+1 {
		t.Fatalf("want %d cuts for %d chunks, got %v", w+1, w, cuts)
	}
	if cuts[0] != 0 || cuts[w] != n {
		t.Fatalf("cuts %v do not span [0, %d]", cuts, n)
	}
	for i := 1; i <= w; i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts %v not strictly increasing", cuts)
		}
	}
}

func TestSplitPositionsTable(t *testing.T) {
	uniform := func(n int) []int {
		d := make([]int, n-1)
		for i := range d {
			d[i] = 1
		}
		return d
	}

	t.Run("uniform-even-split", func(t *testing.T) {
		for _, tc := range []struct{ n, w int }{
			{8, 2}, {64, 4}, {100, 5}, {96, 3},
		} {
			cuts := splitPositions(uniform(tc.n), tc.w)
			checkCuts(t, cuts, tc.n, tc.w)
			// Uniform delays and work: each chunk within one window of n/w.
			window := tc.n / (4 * tc.w)
			if window < 1 {
				window = 1
			}
			for i := 0; i < tc.w; i++ {
				size := cuts[i+1] - cuts[i]
				if size < tc.n/tc.w-2*window || size > tc.n/tc.w+2*window {
					t.Fatalf("n=%d w=%d: chunk %d size %d far from even (%v)",
						tc.n, tc.w, i, size, cuts)
				}
			}
		}
	})

	t.Run("degenerate-window", func(t *testing.T) {
		// n < 4w makes the naive window n/(4w) zero; the clamp keeps the
		// nudge search alive and the cuts valid up to w = n/2.
		for _, tc := range []struct{ n, w int }{
			{10, 5}, {8, 4}, {6, 3}, {4, 2}, {12, 5}, {9, 4},
		} {
			cuts := splitPositions(uniform(tc.n), tc.w)
			checkCuts(t, cuts, tc.n, tc.w)
		}
	})

	t.Run("w-near-half", func(t *testing.T) {
		for n := 4; n <= 24; n++ {
			w := n / 2
			if w < 2 {
				continue
			}
			cuts := splitPositions(uniform(n), w)
			checkCuts(t, cuts, n, w)
		}
	})

	t.Run("cuts-land-on-max-delay-links", func(t *testing.T) {
		// One slow link near each even-split point: the nudge must pick it
		// (cut at p means the boundary link is delays[p-1]).
		delays := uniform(80)
		delays[19] = 50
		delays[39] = 70
		delays[59] = 60
		cuts := splitPositions(delays, 4)
		checkCuts(t, cuts, 80, 4)
		want := []int{0, 20, 40, 60, 80}
		if !reflect.DeepEqual(cuts, want) {
			t.Fatalf("cuts %v did not land on the slow links (want %v)", cuts, want)
		}
	})

	t.Run("work-balanced-skew", func(t *testing.T) {
		// All the work piles up on the last quarter of the hosts; the work
		// quantile cuts must crowd toward that end instead of splitting the
		// host count evenly.
		n := 64
		work := make([]int64, n)
		for p := range work {
			work[p] = 1
			if p >= 48 {
				work[p] = 100
			}
		}
		cuts := splitPositionsWork(uniform(n), work, 4)
		checkCuts(t, cuts, n, 4)
		if cuts[1] < 40 {
			t.Fatalf("cuts %v ignore the hotspot: first cut should sit near the heavy tail", cuts)
		}
		// The heavy region must not sit inside a single chunk.
		heavyChunks := 0
		for i := 0; i < 4; i++ {
			if cuts[i+1] > 48 {
				heavyChunks++
			}
		}
		if heavyChunks < 3 {
			t.Fatalf("cuts %v leave the hotspot in %d chunks (want >= 3)", cuts, heavyChunks)
		}
	})
}

// TestWatchdogCatchesDeadlock wires a genuinely deadlocked dataflow (an empty
// route table, so boundary dependencies are never delivered) with a step cap
// too large to fire first, and checks the wall-clock watchdog reports the
// deadlock instead of hanging.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	a, err := assign.FromOwned(2, 2, [][]int{{0}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays:       []int{1},
		Guest:        guest.Spec{Graph: guest.NewLinearArray(2), Steps: 2, Seed: 1},
		Assign:       a,
		maxSteps:     1 << 40, // the clocks spin upward; make sure the cap cannot fire first
		watchdogIdle: 100 * time.Millisecond,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// An empty route table: step-2 pebbles need the neighbor's step-1 value,
	// which is never routed — the canonical "assignment bug" deadlock.
	rt := newRouteShell(a)
	rt.countCrossings(2, nil)
	start := time.Now()
	_, err = runParallelWithCuts(&cfg, rt, []int{0, 1, 2})
	if err == nil {
		t.Fatal("deadlocked run reported success")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to fire", elapsed)
	}
}

// TestChunkGauges checks the parallel result carries one gauge per chunk,
// tiling the host line, with pebble counts summing to the run total.
func TestChunkGauges(t *testing.T) {
	a, err := assign.UniformBlocks(16, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Delays:  unitDelays(16),
		Guest:   guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 10, Seed: 3},
		Assign:  a,
		Workers: 4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chunks) != 4 {
		t.Fatalf("want 4 chunk gauges, got %d", len(res.Chunks))
	}
	var pebbles int64
	prev := 0
	for i, g := range res.Chunks {
		if g.Lo != prev {
			t.Fatalf("gauge %d starts at %d, want %d (%+v)", i, g.Lo, prev, res.Chunks)
		}
		if g.Hi <= g.Lo {
			t.Fatalf("gauge %d empty: %+v", i, g)
		}
		prev = g.Hi
		pebbles += g.Pebbles
		if g.Steps < res.HostSteps {
			t.Fatalf("gauge %d stopped at step %d before the run end %d", i, g.Steps, res.HostSteps)
		}
	}
	if prev != 16 {
		t.Fatalf("gauges end at %d, want 16", prev)
	}
	if pebbles != res.PebblesComputed {
		t.Fatalf("gauge pebbles %d != run total %d", pebbles, res.PebblesComputed)
	}
	// Sequential runs carry no gauges.
	cfg.Workers = 0
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Chunks) != 0 {
		t.Fatalf("sequential run grew chunk gauges: %+v", seq.Chunks)
	}
}

// cutsFromBytes decodes a fuzz byte string into a valid cut vector over n
// hosts: each byte proposes an interior cut position, duplicates collapse.
func cutsFromBytes(raw []byte, n int) []int {
	set := map[int]bool{}
	for _, b := range raw {
		p := 1 + int(b)%(n-1)
		set[p] = true
	}
	cuts := make([]int, 0, len(set)+2)
	cuts = append(cuts, 0)
	for p := range set {
		cuts = append(cuts, p)
	}
	sort.Ints(cuts)
	return append(cuts, n)
}

// FuzzParallelCuts feeds arbitrary cut vectors — including size-1 chunks and
// heavily unbalanced tilings — through the parallel engine and asserts the
// result is bit-identical to the sequential engine. The cut choice is pure
// placement; any valid vector must reproduce the same simulation.
func FuzzParallelCuts(f *testing.F) {
	f.Add(int64(1), []byte{3, 9})
	f.Add(int64(7), []byte{1, 1, 1, 1})
	f.Add(int64(42), []byte{200, 5, 30, 77})
	f.Add(int64(13), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		r := rand.New(rand.NewSource(seed))
		hostN := 4 + r.Intn(12)
		a, err := assign.UniformBlocks(hostN, 2, 3, 0)
		if err != nil {
			t.Skip()
		}
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(20)
		}
		cfg := Config{
			Delays: delays,
			Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 6, Seed: seed},
			Assign: a,
		}
		if err := cfg.Validate(); err != nil {
			t.Skip()
		}
		rt := buildRoutes(cfg.Guest.Graph, cfg.Assign, nil, nil)
		seq, err := runSequential(&cfg, rt)
		if err != nil {
			t.Fatalf("seq: %v", err)
		}
		cuts := cutsFromBytes(raw, hostN)
		par, err := runParallelWithCuts(&cfg, rt, cuts)
		if err != nil {
			t.Fatalf("cuts %v: %v", cuts, err)
		}
		if !reflect.DeepEqual(seq, stripGauges(par)) {
			t.Fatalf("cuts %v: results differ:\nseq %+v\npar %+v", cuts, seq, par)
		}
	})
}
