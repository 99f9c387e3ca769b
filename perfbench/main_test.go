package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes keep every op to milliseconds.
var tinySizes = sizes{largeHosts: 64, largeSteps: 8, obsHosts: 64, obsSteps: 8, soakScenarios: 4}

// benchmarkFile reads the metric names and units BENCHMARK.json declares.
func benchmarkFile(t *testing.T) (workloads []string, e2e, layer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	return workloads, e2e, layer
}

func sameSpecs(t *testing.T, what string, got, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", what, i, got[i], want[i])
		}
	}
}

// TestEveryMetricEmitted runs each workload tiny in both passes and checks
// that the result object carries exactly the metrics BENCHMARK.json names,
// each with its unit, and that every op was correct.
func TestEveryMetricEmitted(t *testing.T) {
	workloads, e2e, layer := benchmarkFile(t)
	if strings.Join(workloads, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", workloads, workloadNames)
	}
	sameSpecs(t, "end_to_end", endToEnd, e2e)
	sameSpecs(t, "per_layer", perLayer, layer)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(name, 3, time.Millisecond, traced, tinySizes, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d ops failed:\n%s", name, traced, res.Failed, res.Attempted, out.String())
			}
			want := e2e
			if traced {
				want = layer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, s := range want {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, s.name, m, s.unit)
				}
			}
		}
	}
}

// TestPlantedMismatchFails plants a wrong simulated outcome and checks that
// the benchmark counts it as a failed op, both when an op differs from the
// first op and when the traced pass's extra runs differ from the op's run.
func TestPlantedMismatchFails(t *testing.T) {
	b, err := newBench("run-observed", 5, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	op, n := b.op, 0
	b.op = func(i int, tr *tracer, l layers) (*outcome, error) {
		o, err := op(i, tr, l)
		if n++; n == 2 && err == nil {
			o.fp.HostSteps++
		}
		return o, err
	}
	tl := newTally(b.inputs)
	for pass := 0; pass < 3; pass++ {
		b.pass(nil, nil, tl)
	}
	if tl.failed != 1 {
		t.Fatalf("untraced: %d failed of %d, want exactly the planted one", tl.failed, tl.attempted)
	}

	b.op = func(i int, tr *tracer, l layers) (*outcome, error) {
		o, err := op(i, tr, l)
		if err == nil && tr != nil {
			o.res.HostSteps++ // the op's parallel run, which the extra runs must reproduce
		}
		return o, err
	}
	_, traced, _, _ := measureTraced(b, time.Millisecond)
	if traced.failed == 0 {
		t.Fatalf("traced: mismatch with the extra runs not counted (%d ops)", traced.attempted)
	}
}

func TestCompareRefusesOtherMachine(t *testing.T) {
	dir := t.TempDir()
	write := func(name, id string, v float64) string {
		p := filepath.Join(dir, name)
		out := fmt.Sprintf(`machine {"nproc":2,"cpu":"x","gomaxprocs":2,"go":"go1","id":%q}
{"correct":true,"attempted":1,"failed":0,"metrics":{"op_s.p50":{"value":%g,"unit":"s"}}}
`, id, v)
		if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, other := write("a", "1", 2), write("b", "1", 1), write("c", "2", 1)
	var out, errw bytes.Buffer
	if code := run([]string{"-compare", base, same}, &out, &errw); code != 0 || !strings.Contains(out.String(), "head/base 0.5000") {
		t.Fatalf("same machine: exit %d\n%s%s", code, out.String(), errw.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, other}, &out, &errw); code != 3 || !strings.Contains(out.String(), "not comparable") {
		t.Fatalf("other machine: exit %d\n%s", code, out.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
