package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"latencyhide/internal/adapt"
	"latencyhide/internal/telemetry"
	"latencyhide/internal/verify"
)

// cmdVerify runs the model-based verification soak: n generated scenarios
// from a seeded stream, each checked by the invariant oracle, both engines
// and every applicable metamorphic relation (see DESIGN.md "Verification").
func cmdVerify(args []string) error {
	return runVerify(args, os.Stdout)
}

func runVerify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "scenario stream seed")
	n := fs.Int("n", 100, "number of generated scenarios to check")
	chaos := fs.Bool("chaos", false, "restrict the stream to adversarial regimes (spike/drift/churn, half adaptive)")
	adaptSpec := fs.String("adapt", "", "force this adaptive policy onto every scenario (epoch=E,thresh=F,extra=K,budget=B,mode=any|fault)")
	manifestOut, liveFlag := manifestFlags(fs)
	fs.Parse(args)
	if *n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", *n)
	}
	gen := verify.Generate
	if *chaos {
		gen = verify.GenerateChaos
	}
	if *adaptSpec != "" {
		pol, err := adapt.Parse(*adaptSpec)
		if err != nil {
			return err
		}
		base := gen
		gen = func(seed uint64, i int) *verify.Scenario {
			sc := base(seed, i)
			sc.Adapt = pol
			return sc
		}
	}
	mr, err := startMRun("verify", args, *manifestOut, *liveFlag)
	if err != nil {
		return err
	}
	var done atomic.Int64
	mr.startSampling()
	mr.startLive(*liveFlag, func() string {
		return fmt.Sprintf("verify: %d/%d scenarios", done.Load(), *n)
	})
	res, err := verify.SoakGen(*seed, *n, gen, func(d int) { done.Store(int64(d)) })
	mr.stopLive()
	if err != nil {
		return err
	}
	res.Summary(w)
	if mr != nil {
		mr.m.Scenario = fmt.Sprintf("soak seed=%d n=%d", *seed, *n)
		mr.m.Verify = &telemetry.VerifySummary{
			Seed: res.Seed, Scenarios: res.Scenarios, Events: res.Events,
			Relations: res.Relations, Failures: len(res.Failures),
		}
	}
	if err := mr.finish(); err != nil {
		return err
	}
	if !res.OK() {
		return fmt.Errorf("verification failed: %d of %d scenarios violated invariants",
			len(res.Failures), res.Scenarios)
	}
	return nil
}
