// Command perfbench is the repository benchmark. It drives one workload in
// a closed loop — one client, one op at a time — checks every op's output,
// and prints the end-to-end metrics (-trace 0) or the per-layer metrics of a
// separate traced pass (-trace 1). The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench -workload run-large|run-observed|verify-soak|all -seed N -seconds S -trace 0|1
//	perfbench -compare BASE.log HEAD.log
//
// -workload all runs each workload in a fresh child process. -compare
// prints the metric ratios of two saved outputs, and refuses when they come
// from machines with different fingerprints. README.md documents the
// workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric in the result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine fingerprints the host a result was measured on; results from
// different fingerprints are not comparable.
type machine struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	ID         string `json:"id"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), CPU: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%s|%d|%s", m.NProc, m.CPU, m.GOMAXPROCS, m.Go)
	m.ID = fmt.Sprintf("%08x", h.Sum32())
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run-large, run-observed, verify-soak, or all")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	compare := fs.Bool("compare", false, "compare two saved outputs given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two saved outputs")
			return 2
		}
		return compareOutputs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	// The benchmark's shape is one client on at most two cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	d := time.Duration(*seconds * float64(time.Second))
	if *workload == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	res, err := runWorkload(*workload, *seed, d, *trace == 1, fullSizes, ".bench_build", stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return printResult(stdout, stderr, res)
}

// runWorkload measures one workload and prints its report lines; the
// caller prints the result object. The traced pass writes its spans under
// spansDir.
func runWorkload(name string, seed int64, d time.Duration, traced bool, sz sizes, spansDir string, w io.Writer) (*result, error) {
	b, err := newBench(name, seed, sz)
	if err != nil {
		return nil, err
	}
	m := thisMachine()
	mj, _ := json.Marshal(m) // strings and ints always marshal
	fmt.Fprintf(w, "machine %s\n", mj)
	var (
		ts    []*tally
		vals  map[string]float64
		specs = endToEnd
	)
	if traced {
		untraced, tracedT, lm, tr := measureTraced(b, d)
		ts, vals, specs = []*tally{untraced, tracedT}, lm, perLayer
		path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := tr.write(path, m); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans %s (%d spans, %d traced ops)\n", path, len(tr.spans), tracedT.attempted)
		self := tr.selfTimes()
		for _, span := range sortedKeys(self) {
			fmt.Fprintf(w, "self %s %g s/op\n", span, self[span].Seconds()/float64(max(tracedT.attempted, 1)))
		}
		for i, u := range untraced.ref {
			if t := tracedT.ref[i]; u != nil && t != nil && *u != *t {
				tracedT.failed++
				tracedT.errs = append(tracedT.errs, fmt.Sprintf("input %d: traced pass simulated %+v, untraced %+v", i, *t, *u))
			}
		}
	} else {
		t, e2e := measureUntraced(b, d)
		ts, vals = []*tally{t}, e2e
	}
	res := &result{Metrics: map[string]metricValue{}}
	for _, t := range ts {
		res.Attempted += t.attempted
		res.Failed += t.failed
		for _, e := range t.errs {
			fmt.Fprintf(w, "FAIL %s\n", e)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "workload %s seed %d ops %d failed %d fail_rate %g\n",
		name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	report := append(append([]metricSpec(nil), endToEnd...), metricSpec{"op_s.p95", "s"})
	if traced {
		report = append(append([]metricSpec(nil), perLayer...), workloadLayers...)
	}
	for _, s := range report {
		if v, ok := vals[s.name]; ok {
			fmt.Fprintf(w, "metric %s %g %s\n", s.name, v, s.unit)
		}
	}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("%s: metric %s was not measured (%d of %d ops failed)", name, s.name, res.Failed, res.Attempted)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return res, nil
}

func printResult(stdout, stderr io.Writer, res *result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll runs every workload in a fresh child process, so none inherits
// another's heap, and ends with one result object whose metrics are keyed
// workload/metric.
func runAll(seed int64, seconds float64, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	all := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range workloadNames {
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = io.MultiWriter(stdout, &out), stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", name, err)
			return 1
		}
		_, res, err := parseOutput(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s: %v\n", name, err)
			return 1
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return printResult(stdout, stderr, all)
}

// parseOutput reads a run's machine line and its result object.
func parseOutput(data []byte) (machine, *result, error) {
	var m machine
	var last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "machine "); ok && m.ID == "" {
			if err := json.Unmarshal([]byte(rest), &m); err != nil {
				return m, nil, fmt.Errorf("machine line: %w", err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return m, nil, fmt.Errorf("result line: %w", err)
	}
	if m.ID == "" {
		return m, nil, fmt.Errorf("no machine line")
	}
	return m, &res, nil
}

// compareOutputs prints head/base for every metric of two saved outputs.
// Results from different machine fingerprints are not comparable: it says
// so and exits 3.
func compareOutputs(basePath, headPath string, stdout, stderr io.Writer) int {
	var ms [2]machine
	var rs [2]*result
	for i, p := range []string{basePath, headPath} {
		data, err := os.ReadFile(p)
		if err == nil {
			ms[i], rs[i], err = parseOutput(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	if ms[0].ID != ms[1].ID {
		fmt.Fprintf(stdout, "not comparable: machine fingerprints differ\n  base %+v\n  head %+v\n", ms[0], ms[1])
		return 3
	}
	fmt.Fprintf(stdout, "machine %s: %s, nproc %d, GOMAXPROCS %d, %s\n", ms[0].ID, ms[0].CPU, ms[0].NProc, ms[0].GOMAXPROCS, ms[0].Go)
	for _, name := range sortedKeys(rs[0].Metrics) {
		b := rs[0].Metrics[name]
		h, ok := rs[1].Metrics[name]
		if !ok {
			fmt.Fprintf(stdout, "%-32s %14g %14s %s\n", name, b.Value, "missing", b.Unit)
			continue
		}
		fmt.Fprintf(stdout, "%-32s %14g %14g %s  head/base %.4f\n", name, b.Value, h.Value, b.Unit, ratio(h.Value, b.Value))
	}
	return 0
}
