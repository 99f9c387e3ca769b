package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testSpec = &spec{
	RunSeconds: 20,
	EndToEnd: []metricSpec{
		{Name: "pebbles_per_s", Better: "higher", Bound: 0.25},
		{Name: "op_s.p50", Better: "lower", Bound: 0.25},
		{Name: "slowdown", Better: "lower", Bound: 0.15},
	},
}

// cannedRun fakes perfbench: side B's pebbles_per_s is scaled by bScale and
// its op time by 1/bScale, each run carries a small deterministic wobble, and
// the machine ids and failure counts come from the arguments.
func cannedRun(bScale float64, machines [2]string, failed [2]int, calls *[]string) runFunc {
	rng := rand.New(rand.NewSource(3))
	return func(side, workload string) ([]byte, error) {
		*calls = append(*calls, side)
		s := 0
		pps := 1e6 * (1 + 0.01*rng.NormFloat64())
		if side == "B" {
			s = 1
			pps *= bScale
		}
		return []byte(fmt.Sprintf("machine {\"nproc\":2,\"id\":%q}\nworkload %s\n"+
			`{"correct":true,"attempted":100,"failed":%d,"metrics":{"pebbles_per_s":{"value":%g,"unit":"1/s"},"op_s.p50":{"value":%g,"unit":"s"},"slowdown":{"value":10.5,"unit":"ratio"}}}`+"\n",
			machines[s], workload, failed[s], pps, 2.6e6/pps)), nil
	}
}

func TestABAlternatesPairs(t *testing.T) {
	var calls []string
	dir := t.TempDir()
	if got := ab(testSpec, []string{"w"}, cannedRun(1, [2]string{"m", "m"}, [2]int{}, &calls), dir, io.Discard); got != 0 {
		t.Fatalf("exit %d, want 0", got)
	}
	if len(calls) != 2*abPairs {
		t.Fatalf("%d runs, want %d", len(calls), 2*abPairs)
	}
	for i := 0; i < len(calls); i += 2 {
		want := "AB"
		if i/2%2 == 1 {
			want = "BA"
		}
		if got := calls[i] + calls[i+1]; got != want {
			t.Fatalf("pair %d ran %s, want %s (all: %v)", i/2, got, want, calls)
		}
	}
	saved, _ := filepath.Glob(filepath.Join(dir, "w-pair*.log"))
	if len(saved) != 2*abPairs {
		t.Fatalf("saved %d raw outputs, want %d", len(saved), 2*abPairs)
	}
}

func TestABVerdicts(t *testing.T) {
	cases := []struct {
		name     string
		bScale   float64
		wantExit int
		want     map[string]string // metric -> verdict
	}{
		{"null", 1, 0, map[string]string{"pebbles_per_s": "unresolved", "op_s.p50": "unresolved", "slowdown": "unresolved"}},
		{"5% slower", 0.95, 0, map[string]string{"pebbles_per_s": "worse", "op_s.p50": "worse", "slowdown": "unresolved"}},
		{"5% faster", 1.05, 0, map[string]string{"pebbles_per_s": "better", "op_s.p50": "better"}},
		{"past the bound", 0.6, 1, map[string]string{"pebbles_per_s": "FAIL", "op_s.p50": "FAIL", "slowdown": "unresolved"}},
		{"inside the bound", 0.85, 0, map[string]string{"pebbles_per_s": "worse", "op_s.p50": "worse"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls []string
			var out strings.Builder
			got := ab(testSpec, []string{"w"}, cannedRun(tc.bScale, [2]string{"m", "m"}, [2]int{}, &calls), "", &out)
			if got != tc.wantExit {
				t.Errorf("exit %d, want %d\n%s", got, tc.wantExit, out.String())
			}
			for metric, v := range tc.want {
				line := reportLine(t, out.String(), metric)
				if !strings.HasSuffix(line, " "+v) {
					t.Errorf("%s: got %q, want verdict %s", metric, line, v)
				}
			}
		})
	}
}

func reportLine(t *testing.T, report, metric string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == metric {
			return line
		}
	}
	t.Fatalf("no report line for %s in\n%s", metric, report)
	return ""
}

func TestBootstrapInterval(t *testing.T) {
	xs := []float64{0.93, 0.94, 0.95, 0.95, 0.96, 0.96, 0.97, 0.95, 0.94, 0.96}
	lo, hi := bootstrap(xs, rand.New(rand.NewSource(1)))
	if m := median(xs); !(lo <= m && m <= hi) {
		t.Fatalf("interval [%g, %g] does not hold the median %g", lo, hi, m)
	}
	if lo < 0.93 || hi > 0.97 || hi >= 1 {
		t.Fatalf("interval [%g, %g] outside the sample range [0.93, 0.97]", lo, hi)
	}
	lo2, hi2 := bootstrap(xs, rand.New(rand.NewSource(1)))
	if lo2 != lo || hi2 != hi {
		t.Fatal("bootstrap is not reproducible under a fixed seed")
	}
}

func TestVerdictBounds(t *testing.T) {
	higher := metricSpec{Better: "higher", Bound: 0.25}
	lower := metricSpec{Better: "lower", Bound: 0.2}
	cases := []struct {
		m      metricSpec
		lo, hi float64
		want   string
	}{
		{higher, 0.9, 1.1, "unresolved"},
		{higher, 1.01, 1.1, "better"},
		{higher, 0.8, 0.99, "worse"},
		{higher, 0.7, 0.76, "worse"}, // 24% worse at the best end: inside the bound
		{higher, 0.6, 0.74, "FAIL"},
		{lower, 1.05, 1.19, "worse"},
		{lower, 1.21, 1.3, "FAIL"},
		{lower, 0.8, 0.95, "better"},
		{lower, 1, 1, "unresolved"},
	}
	for _, tc := range cases {
		if got := verdict(tc.m, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s-is-better [%g, %g]: got %s, want %s", tc.m.Better, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestABMachineMismatch(t *testing.T) {
	var calls []string
	if got := ab(testSpec, []string{"w"}, cannedRun(1, [2]string{"m1", "m2"}, [2]int{}, &calls), "", io.Discard); got != 3 {
		t.Fatalf("exit %d, want 3", got)
	}
}

func TestABFailedOpShare(t *testing.T) {
	for _, tc := range []struct {
		failed   [2]int
		wantExit int
	}{
		{[2]int{0, 0}, 0},
		{[2]int{2, 2}, 0},
		{[2]int{3, 1}, 0},
		{[2]int{0, 1}, 1},
	} {
		var calls []string
		if got := ab(testSpec, []string{"w"}, cannedRun(1, [2]string{"m", "m"}, tc.failed, &calls), "", io.Discard); got != tc.wantExit {
			t.Errorf("failed A %d, B %d per run: exit %d, want %d", tc.failed[0], tc.failed[1], got, tc.wantExit)
		}
	}
}

func TestABRunError(t *testing.T) {
	run := func(side, workload string) ([]byte, error) {
		if side == "B" {
			return []byte("build failed\n"), fmt.Errorf("exit status 1")
		}
		return cannedRun(1, [2]string{"m", "m"}, [2]int{}, new([]string))(side, workload)
	}
	dir := t.TempDir()
	if got := ab(testSpec, []string{"w"}, run, dir, io.Discard); got != 1 {
		t.Fatalf("exit %d, want 1", got)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "w-pair00-B.log")); err != nil || string(data) != "build failed\n" {
		t.Fatalf("failed run's output not kept: %q, %v", data, err)
	}
}
