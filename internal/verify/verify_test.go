package verify

import (
	"strings"
	"testing"
)

// TestCheckScenarioFixed pins a handful of hand-written scenarios spanning
// the relation matrix: fault-free single copy (mirror), replicated
// (replication bound), outage (monotonicity), crash + replication.
func TestCheckScenarioFixed(t *testing.T) {
	cases := []struct {
		spec      string
		relations []string
	}{
		{
			"g=ring:12;n=4;d=const:2;bw=1;rep=1;steps=6;w=3;seed=2",
			[]string{"engine-equivalence", "seed-invariance", "mirror-invariance"},
		},
		{
			"g=mesh:3:3;n=5;d=uniform:1:4;bw=2;rep=2;steps=5;w=2;seed=8",
			[]string{"engine-equivalence", "seed-invariance", "replication-bound"},
		},
		{
			"g=line:10;n=4;d=const:1;bw=1;rep=1;steps=5;w=4;seed=4;f=2:outage=0.15x6",
			[]string{"engine-equivalence", "seed-invariance", "outage-monotone"},
		},
		{
			"g=tree:3;n=6;d=bimodal:1:9;bw=2;rep=3;steps=6;w=3;seed=11;f=5:crash=2@4;jitter=2@0.25",
			[]string{"engine-equivalence", "seed-invariance"},
		},
	}
	for _, tc := range cases {
		sc, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		rep, err := CheckScenario(sc)
		if err != nil {
			t.Fatalf("CheckScenario(%q): %v", tc.spec, err)
		}
		if len(rep.Violations) != 0 {
			t.Errorf("scenario %q violated: %v", tc.spec, rep.Violations)
		}
		if rep.Events == 0 {
			t.Errorf("scenario %q produced no events", tc.spec)
		}
		got := strings.Join(rep.Relations, ",")
		want := strings.Join(tc.relations, ",")
		if got != want {
			t.Errorf("scenario %q relations %q, want %q", tc.spec, got, want)
		}
	}
}

// Jitter redraws delays per (link, step, slot), so shifting injections by
// doubling outages can land a luckier draw. These soak scenarios combine
// jitter with outages and once failed outage-monotone that way (seed 6:
// 243 -> 232 host steps; seed 15: 111 -> 76); the relation now compares
// jitter-free twins and must pass them.
func TestOutageMonotoneIgnoresJitterRedraws(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		i    int
	}{{6, 1116}, {15, 557}} {
		sc := Generate(c.seed, c.i)
		if sc.Faults == nil || len(sc.Faults.Jitters) == 0 || len(sc.Faults.Outages) == 0 {
			t.Fatalf("seed %d scenario %d (%s) no longer combines jitter and outages", c.seed, c.i, sc)
		}
		rep, err := CheckScenario(sc)
		if err != nil {
			t.Fatalf("seed %d scenario %d: %v", c.seed, c.i, err)
		}
		if len(rep.Violations) != 0 {
			t.Errorf("seed %d scenario %d (%s) violated: %v", c.seed, c.i, sc, rep.Violations)
		}
		if !strings.Contains(strings.Join(rep.Relations, ","), "outage-monotone") {
			t.Errorf("seed %d scenario %d did not exercise outage-monotone: %v", c.seed, c.i, rep.Relations)
		}
	}
}

// TestSoakSweep is the quickcheck-style sweep: a fixed-seed batch of random
// scenarios must come back clean with every relation exercised at least once.
func TestSoakSweep(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	res, err := Soak(1, n)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		var sb strings.Builder
		res.Summary(&sb)
		t.Fatalf("soak failed:\n%s", sb.String())
	}
	if res.Events == 0 {
		t.Fatal("soak checked no events")
	}
	for _, rel := range []string{
		"engine-equivalence", "seed-invariance", "replication-bound",
		"outage-monotone", "mirror-invariance",
	} {
		if res.Relations[rel] == 0 {
			t.Errorf("soak of %d scenarios never exercised %s", n, rel)
		}
	}
	if res.Relations["engine-equivalence"] != n {
		t.Errorf("engine-equivalence ran %d times, want every scenario (%d)",
			res.Relations["engine-equivalence"], n)
	}
}

// The soak summary must be deterministic and match the documented shape.
func TestSoakSummaryFormat(t *testing.T) {
	res, err := Soak(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	res.Summary(&a)
	res.Summary(&b)
	if a.String() != b.String() {
		t.Fatal("summary is not deterministic")
	}
	out := a.String()
	if !strings.HasPrefix(out, "verify: seed=2 scenarios=5 events=") {
		t.Fatalf("summary header: %q", out)
	}
	if !strings.Contains(out, "verify: PASS (0 violations)\n") {
		t.Fatalf("summary verdict: %q", out)
	}
}

// A failed report must surface in the summary with its scenario and detail.
func TestSoakSummaryFailure(t *testing.T) {
	res := &SoakResult{Seed: 9, Scenarios: 1, Relations: map[string]int{},
		Failures: []*Report{{
			Scenario:   Generate(9, 0),
			Violations: []Violation{{Invariant: "conservation", Detail: "lost a pebble"}},
		}},
	}
	var sb strings.Builder
	res.Summary(&sb)
	out := sb.String()
	if !strings.Contains(out, "verify: FAIL (1 scenarios violated invariants)") {
		t.Fatalf("failure verdict missing: %q", out)
	}
	if !strings.Contains(out, "conservation: lost a pebble") {
		t.Fatalf("violation detail missing: %q", out)
	}
	if res.OK() {
		t.Fatal("failed soak reported OK")
	}
}
