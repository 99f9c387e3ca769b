// Package expt is the reproduction harness: one experiment per paper result
// (see DESIGN.md's per-experiment index). Every experiment regenerates a
// table whose *shape* — who wins, by what asymptotic factor, where the
// crossovers fall — must match the corresponding theorem; EXPERIMENTS.md
// records paper-vs-measured for each.
package expt

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"latencyhide/internal/metrics"
)

// Scale selects experiment sizes.
type Scale int

const (
	// Quick runs in seconds; used by tests and the default CLI.
	Quick Scale = iota
	// Full runs the sizes EXPERIMENTS.md reports.
	Full
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("expt: unknown scale %q (want quick or full)", s)
	}
}

// Experiment is one reproducible paper result.
type Experiment struct {
	ID    string // e.g. "E1"
	Title string
	Paper string // which theorem/figure it reproduces
	Run   func(scale Scale) ([]*metrics.Table, error)
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("expt: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID, or nil.
func Get(id string) *Experiment { return registry[id] }

// All returns every registered experiment, sorted by ID (E1, E2, ..., E10
// numerically).
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(out[i].ID, "E%d", &a)
		fmt.Sscanf(out[j].ID, "E%d", &b)
		return a < b
	})
	return out
}

// RunAll executes every experiment at the given scale and renders the
// tables to w (markdown if md is true). It keeps going past individual
// failures and returns the first error at the end. Experiments run
// concurrently on up to GOMAXPROCS workers; output stays byte-identical to
// a sequential run because each experiment renders into its own buffer and
// the buffers are flushed in registry (ID) order.
func RunAll(w io.Writer, scale Scale, md bool) error {
	_, err := RunAllTimed(w, scale, md, 0, nil)
	return err
}

// runOne executes one experiment, converting a panic into that experiment's
// error (with the stack) so a bug in one experiment cannot take down the
// whole harness — or, under RunAllTimed, the goroutines running its
// concurrent siblings.
func runOne(e *Experiment, scale Scale) (tables []*metrics.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return e.Run(scale)
}

// Timing is one experiment's wall-clock cost from a timed harness run.
type Timing struct {
	ID   string
	Wall time.Duration
}

// RunAllTimed is RunAll with an explicit concurrency bound (workers <= 0
// means GOMAXPROCS, 1 runs strictly sequentially), returning per-experiment
// wall timings (in ID order) and reporting progress: after each experiment
// finishes, progress is called with the completion count, the total, and the
// experiment's ID. progress may be called from multiple goroutines
// concurrently; nil disables it.
func RunAllTimed(w io.Writer, scale Scale, md bool, workers int, progress func(done, total int, id string)) ([]Timing, error) {
	exps := All()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	type result struct {
		buf  bytes.Buffer
		err  error // already wrapped with the experiment ID
		wall time.Duration
	}
	results := make([]result, len(exps))
	var doneCount atomic.Int64
	renderOne := func(i int) {
		e, out := exps[i], &results[i]
		start := time.Now()
		fmt.Fprintf(&out.buf, "\n=== %s: %s (%s) ===\n\n", e.ID, e.Title, e.Paper)
		tables, err := runOne(e, scale)
		if err != nil {
			fmt.Fprintf(&out.buf, "FAILED: %v\n", err)
			out.err = fmt.Errorf("%s: %w", e.ID, err)
		} else {
			for _, t := range tables {
				if md {
					t.Markdown(&out.buf)
				} else {
					t.Fprint(&out.buf)
					fmt.Fprintln(&out.buf)
				}
			}
		}
		out.wall = time.Since(start)
		if progress != nil {
			progress(int(doneCount.Add(1)), len(exps), e.ID)
		}
	}

	if workers == 1 {
		for i := range exps {
			renderOne(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					renderOne(i)
				}
			}()
		}
		for i := range exps {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	var firstErr error
	timings := make([]Timing, len(exps))
	for i := range results {
		timings[i] = Timing{ID: exps[i].ID, Wall: results[i].wall}
		if _, err := w.Write(results[i].buf.Bytes()); err != nil {
			return timings, err
		}
		if results[i].err != nil && firstErr == nil {
			firstErr = results[i].err
		}
	}
	return timings, firstErr
}
