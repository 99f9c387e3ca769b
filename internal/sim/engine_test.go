package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"latencyhide/internal/assign"
	"latencyhide/internal/guest"
	"latencyhide/internal/obs"
)

func unitDelays(n int) []int {
	d := make([]int, n-1)
	for i := range d {
		d[i] = 1
	}
	return d
}

func TestValidateErrors(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(4, 8)
	good := Config{
		Delays: unitDelays(4),
		Guest:  guest.Spec{Graph: guest.NewLinearArray(8), Steps: 2},
		Assign: a,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Assign = nil
	if _, err := Run(bad); err == nil {
		t.Fatal("nil assignment accepted")
	}
	bad = good
	bad.Delays = unitDelays(5)
	if _, err := Run(bad); err == nil {
		t.Fatal("host size mismatch accepted")
	}
	bad = good
	bad.Guest.Graph = guest.NewLinearArray(9)
	if _, err := Run(bad); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	bad = good
	bad.Delays = []int{1, 0, 1}
	if _, err := Run(bad); err == nil {
		t.Fatal("zero delay accepted")
	}
	bad = good
	bad.Guest.Steps = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative steps accepted")
	}
}

func TestZeroSteps(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(4, 8)
	res, err := Run(Config{
		Delays: unitDelays(4),
		Guest:  guest.Spec{Graph: guest.NewLinearArray(8), Steps: 0},
		Assign: a,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HostSteps != 0 || res.PebblesComputed != 0 {
		t.Fatalf("zero-step run: %+v", res)
	}
}

func TestSingleWorkstation(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(1, 5)
	res, err := Run(Config{
		Delays: nil,
		Guest:  guest.Spec{Graph: guest.NewLinearArray(5), Steps: 7, Seed: 3},
		Assign: a,
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// one workstation computes 5 pebbles per guest step sequentially
	if res.HostSteps != 35 {
		t.Fatalf("host steps %d want 35", res.HostSteps)
	}
	if res.Messages != 0 {
		t.Fatalf("messages %d on a single workstation", res.Messages)
	}
}

// TestBandwidthSemantics pins the paper's cost model exactly: P pebbles
// cross a d-delay link in d + ceil(P/B) - 1 steps. A star guest (one
// consumer adjacent to P producers) forces a P-pebble burst across one link.
func TestBandwidthSemantics(t *testing.T) {
	for _, tc := range []struct{ p, b, d int }{
		{6, 1, 4}, {6, 2, 4}, {6, 3, 4}, {6, 6, 4}, {7, 3, 10}, {1, 1, 9}, {12, 5, 2},
	} {
		adj := make([][]int, tc.p+1)
		consumer := tc.p
		for i := 0; i < tc.p; i++ {
			adj[i] = []int{consumer}
			adj[consumer] = append(adj[consumer], i)
		}
		g := guest.NewCustom("star", adj)
		owned := [][]int{make([]int, tc.p), {consumer}}
		for i := 0; i < tc.p; i++ {
			owned[0][i] = i
		}
		a, err := assign.FromOwned(2, tc.p+1, owned)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Delays:         []int{tc.d},
			Guest:          guest.Spec{Graph: g, Steps: 2, Seed: 1},
			Assign:         a,
			Bandwidth:      tc.b,
			ComputePerStep: tc.p + 1, // producers all compute at step 1
			Check:          true,
		})
		if err != nil {
			t.Fatalf("p=%d b=%d d=%d: %v", tc.p, tc.b, tc.d, err)
		}
		// Producers compute step 1 at host step 1 and inject the burst at
		// step 1; the consumer's step-2 pebble completes when the last of
		// the P pebbles lands: d + ceil(P/B) - 1 after injection, i.e. at
		// host step 1 + d + ceil(P/B) - 1.
		want := int64(1 + tc.d + (tc.p+tc.b-1)/tc.b - 1)
		if res.HostSteps != want {
			t.Fatalf("p=%d b=%d d=%d: host steps %d want %d", tc.p, tc.b, tc.d, res.HostSteps, want)
		}
	}
}

// TestLatencyChain pins the latency model on a relay path: a value crossing
// k links of delay d arrives after k*d steps (store-and-forward relaying is
// free).
func TestLatencyChain(t *testing.T) {
	// hosts 0..3; guest: two adjacent columns at the far ends
	g := guest.NewLinearArray(2)
	owned := [][]int{{0}, nil, nil, {1}}
	a, err := assign.FromOwned(4, 2, owned)
	if err != nil {
		t.Fatal(err)
	}
	d := 5
	res, err := Run(Config{
		Delays: []int{d, d, d},
		Guest:  guest.Spec{Graph: g, Steps: 2, Seed: 2},
		Assign: a,
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// step 1 computed at 1 on both ends; values cross 3 links (15 steps);
	// step 2 computed at 1 + 15 = 16.
	if res.HostSteps != int64(1+3*d) {
		t.Fatalf("host steps %d want %d", res.HostSteps, 1+3*d)
	}
	if res.MessageHops != 2*3 {
		t.Fatalf("hops %d want 6", res.MessageHops)
	}
}

func TestRingGuestWraparound(t *testing.T) {
	// A guest ring's wrap column pair (0, m-1) lives at opposite host
	// ends; the multicast must cross the whole line.
	m := 12
	a, err := assign.SingleCopyBlocks(6, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Delays: unitDelays(6),
		Guest:  guest.Spec{Graph: guest.NewRing(m), Steps: 6, Seed: 5},
		Assign: a,
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checked {
		t.Fatal("unchecked")
	}
	// wrap traffic forces slowdown at least the line diameter / steps
	if res.HostSteps < 6 {
		t.Fatalf("suspiciously fast: %d", res.HostSteps)
	}
}

func TestMeshGuest(t *testing.T) {
	rows, cols := 4, 6
	g := guest.NewMesh(rows, cols)
	owned := make([][]int, 3)
	for c := 0; c < cols; c++ {
		p := c / 2
		for r := 0; r < rows; r++ {
			owned[p] = append(owned[p], r*cols+c)
		}
	}
	a, err := assign.FromOwned(3, rows*cols, owned)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Delays: []int{3, 7},
		Guest:  guest.Spec{Graph: g, Steps: 5, Seed: 8},
		Assign: a,
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PebblesComputed != int64(rows*cols*5) {
		t.Fatalf("pebbles %d", res.PebblesComputed)
	}
}

func TestCustomOpAndKVDBThroughEngine(t *testing.T) {
	op := func(db uint64, node, step int, self uint64, ns []uint64) uint64 {
		v := self + db + uint64(step)
		for _, x := range ns {
			v += x * 3
		}
		return v
	}
	a, _ := assign.UniformBlocks(4, 3, 3, 0)
	res, err := Run(Config{
		Delays: []int{2, 9, 2},
		Guest: guest.Spec{
			Graph:       guest.NewLinearArray(a.Columns),
			Steps:       6,
			Seed:        11,
			Op:          op,
			Init:        func(node int, seed int64) uint64 { return uint64(node) ^ uint64(seed) },
			NewDatabase: guest.KVFactory(16),
		},
		Assign: a,
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checked {
		t.Fatal("custom op run not verified")
	}
}

func TestMaxStepsExceeded(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(2, 4)
	_, err := Run(Config{
		Delays:   []int{1000},
		Guest:    guest.Spec{Graph: guest.NewLinearArray(4), Steps: 8, Seed: 1},
		Assign:   a,
		maxSteps: 10,
	})
	if err == nil {
		t.Fatal("expected step-cap error")
	}
}

func TestPerProcCollection(t *testing.T) {
	// Per-workstation compute counts come from the event stream: every
	// compute event names its proc, and the counts must cover all hostN
	// procs and sum to PebblesComputed.
	a, _ := assign.SingleCopyBlocks(4, 8)
	rec := obs.NewBuffer()
	res, err := Run(Config{
		Delays:   unitDelays(4),
		Guest:    guest.Spec{Graph: guest.NewLinearArray(8), Steps: 3, Seed: 1},
		Assign:   a,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	perProc := make([]int64, 4)
	var sum int64
	for _, e := range rec.Events() {
		if e.Kind != obs.KindCompute {
			continue
		}
		if e.Proc < 0 || int(e.Proc) >= len(perProc) {
			t.Fatalf("compute event on proc %d of %d", e.Proc, len(perProc))
		}
		perProc[e.Proc]++
		sum++
	}
	if sum != res.PebblesComputed {
		t.Fatalf("per-proc %v vs total %d", perProc, res.PebblesComputed)
	}
	for p, c := range perProc {
		if c == 0 {
			t.Fatalf("proc %d computed nothing: %v", p, perProc)
		}
	}
}

func TestRouteTableProperties(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		hostN := 2 + r.Intn(12)
		m := 1 + r.Intn(30)
		// random multi-copy assignment covering every column
		owned := make([][]int, hostN)
		used := make([]map[int]bool, hostN)
		for i := range used {
			used[i] = map[int]bool{}
		}
		addCopy := func(c, p int) {
			if !used[p][c] {
				used[p][c] = true
				owned[p] = append(owned[p], c)
			}
		}
		for c := 0; c < m; c++ {
			addCopy(c, r.Intn(hostN))
			for extra := 0; extra < r.Intn(3); extra++ {
				addCopy(c, r.Intn(hostN))
			}
		}
		a, err := assign.FromOwned(hostN, m, owned)
		if err != nil {
			t.Fatal(err)
		}
		g := guest.NewLinearArray(m)
		rt := buildRoutes(g, a, nil, nil)
		if err := rt.validate(hostN); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// per column: the union of route dests equals
		// holders(neighbors) \ holders(col), with no duplicates
		covered := make(map[[2]int]bool)
		for id, rr := range rt.routes {
			if !a.Holds(int(rr.sender), int(rr.col)) {
				t.Fatalf("sender %d does not hold col %d", rr.sender, rr.col)
			}
			for _, dst := range rt.destsOf(int32(id)) {
				key := [2]int{int(rr.col), int(dst)}
				if covered[key] {
					t.Fatalf("col %d dest %d covered twice", rr.col, dst)
				}
				covered[key] = true
				if a.Holds(int(dst), int(rr.col)) {
					t.Fatalf("dest %d holds col %d (should compute, not receive)", dst, rr.col)
				}
			}
		}
		for c := 0; c < m; c++ {
			want := map[int]bool{}
			for _, nb := range g.Neighbors(c) {
				for _, p := range a.Holders[nb] {
					want[p] = true
				}
			}
			for _, p := range a.Holders[c] {
				delete(want, p)
			}
			for p := range want {
				if !covered[[2]int{c, p}] {
					t.Fatalf("col %d dest %d not covered by any route", c, p)
				}
			}
			for key := range covered {
				if key[0] == c && !want[key[1]] {
					t.Fatalf("col %d dest %d covered but not needed", c, key[1])
				}
			}
		}
	}
}

// Property: sequential and parallel engines agree exactly on random
// heterogeneous configurations.
func TestEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64, workersSel, hostSel uint8) bool {
		r := rand.New(rand.NewSource(seed))
		hostN := 8 + int(hostSel%5)*8
		delays := make([]int, hostN-1)
		for i := range delays {
			delays[i] = 1 + r.Intn(30)
		}
		a, err := assign.UniformBlocks(hostN, 2, 4, 0)
		if err != nil {
			return false
		}
		cfg := Config{
			Delays: delays,
			Guest:  guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 12, Seed: seed},
			Assign: a,
		}
		seq, err := Run(cfg)
		if err != nil {
			return false
		}
		cfg.Workers = 2 + int(workersSel%6)
		par, err := Run(cfg)
		if err != nil {
			return false
		}
		return seq.HostSteps == par.HostSteps &&
			seq.PebblesComputed == par.PebblesComputed &&
			seq.Messages == par.Messages &&
			seq.MessageHops == par.MessageHops &&
			seq.DeliveredValues == par.DeliveredValues
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelCheckVerifies(t *testing.T) {
	a, _ := assign.UniformBlocks(16, 2, 4, 0)
	res, err := Run(Config{
		Delays:  unitDelays(16),
		Guest:   guest.Spec{Graph: guest.NewLinearArray(a.Columns), Steps: 20, Seed: 6},
		Assign:  a,
		Workers: 4,
		Check:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checked {
		t.Fatal("parallel run not verified")
	}
}

func TestSplitPositions(t *testing.T) {
	delays := make([]int, 63)
	for i := range delays {
		delays[i] = 1
	}
	delays[20] = 100
	delays[40] = 100
	cuts := splitPositions(delays, 3)
	if len(cuts) != 4 || cuts[0] != 0 || cuts[3] != 64 {
		t.Fatalf("cuts %v", cuts)
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Fatalf("cuts not increasing: %v", cuts)
		}
	}
	// cut nudging should find the big-delay links
	if cuts[1] != 21 || cuts[2] != 41 {
		t.Logf("cuts %v did not land on the slow links (ok but suboptimal)", cuts)
	}
}

func TestHighWorkerCountClamped(t *testing.T) {
	a, _ := assign.SingleCopyBlocks(8, 16)
	res, err := Run(Config{
		Delays:  unitDelays(8),
		Guest:   guest.Spec{Graph: guest.NewLinearArray(16), Steps: 5, Seed: 9},
		Assign:  a,
		Workers: 100,
		Check:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Checked {
		t.Fatal("clamped worker run failed")
	}
}

func mustBlocks(t *testing.T, hostN, m int) *assign.Assignment {
	t.Helper()
	a, err := assign.SingleCopyBlocks(hostN, m)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// One guest step on a single-copy boundary pair costs a full round trip:
// the generalized ping-pong dependency that PropagationLB certifies.
func TestPingPongRate(t *testing.T) {
	// columns 0..5 on host 0, 6..11 on host 1, link delay 20
	owned := [][]int{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}
	a, err := assign.FromOwned(2, 12, owned)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Delays: []int{20},
		Guest:  guest.Spec{Graph: guest.NewLinearArray(12), Steps: 40, Seed: 1},
		Assign: a,
		Check:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// boundary columns 5 and 6 exchange every step: the chained bound
	// gives slowdown >= dist/w = 20; interior slack is only 5 columns
	if res.Slowdown < 15 {
		t.Fatalf("slowdown %.1f below the ping-pong floor ~20", res.Slowdown)
	}
	if res.Slowdown > 45 {
		t.Fatalf("slowdown %.1f far above the ping-pong rate", res.Slowdown)
	}
}
