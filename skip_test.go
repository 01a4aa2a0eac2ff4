package dufp_test

import (
	"context"
	"testing"
	"time"

	"dufp"
)

// TestSessionRoundSkipping sweeps the public run path with a noise-free
// session — the configuration under which the paper's controllers
// certify steadiness — asserting that governed runs skip control rounds
// in steady state while staying bit-identical to the pinned reference
// loop, and that the skips surface in the run's span summary.
func TestSessionRoundSkipping(t *testing.T) {
	app, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "compute", Duration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := dufp.DefaultControlConfig(0.10)
	governors := []struct {
		name string
		gov  dufp.Governor
	}{
		{"dufp", dufp.DUFP(ctrl)},
		{"duf", dufp.DUF(ctrl)},
		{"staticcap", dufp.StaticCap(110*dufp.Watt, 110*dufp.Watt)},
	}
	ctx := context.Background()

	for _, g := range governors {
		t.Run(g.name, func(t *testing.T) {
			build := func(exact bool) dufp.Session {
				opts := []dufp.SessionOption{dufp.WithExecutor(dufp.NewExecutor())}
				if exact {
					opts = append(opts, dufp.WithExactPhysics())
				}
				s := dufp.NewSession(opts...)
				// Zero power jitter so the power stays constant, and zero
				// measurement noise so the monitors become provably
				// deterministic — round skipping requires both.
				s.Sim.PowerJitterSD = 0
				s.NoiseSD = 0
				return s
			}
			spec := dufp.RunSpec{App: app, Governor: g.gov}
			free, err := build(false).Run(ctx, spec, dufp.WithSpans())
			if err != nil {
				t.Fatal(err)
			}
			exact, err := build(true).Run(ctx, spec, dufp.WithSpans())
			if err != nil {
				t.Fatal(err)
			}
			if free.Run != exact.Run {
				t.Fatalf("runs diverge:\nfree:  %+v\nexact: %+v", free.Run, exact.Run)
			}
			if free.Spans == nil || exact.Spans == nil {
				t.Fatal("span summaries missing")
			}
			if free.Spans.SkippedRounds == 0 {
				t.Fatalf("%s skipped no rounds in steady state (summary %+v)", g.name, free.Spans)
			}
			if exact.Spans.SkippedRounds != 0 {
				t.Fatalf("exact-physics run skipped %d rounds", exact.Spans.SkippedRounds)
			}
			// Real rounds plus skipped rounds must cover the reference
			// cadence: the exact twin ran every round for real.
			freeTotal := free.Spans.Rounds + free.Spans.SkippedRounds
			if freeTotal != exact.Spans.Rounds {
				t.Fatalf("%s: free rounds %d + skipped %d != exact rounds %d",
					g.name, free.Spans.Rounds, free.Spans.SkippedRounds, exact.Spans.Rounds)
			}
		})
	}
}

// TestSessionRoundSkippingNoisy pins the safe default: the session-level
// measurement noise (NoiseSD > 0) makes governor observations
// non-deterministic, so no rounds may ever be skipped.
func TestSessionRoundSkippingNoisy(t *testing.T) {
	app, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "memory", Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	if s.NoiseSD == 0 {
		t.Fatal("default session unexpectedly noise-free")
	}
	// Jitter-free physics admits round skipping; the measurement noise
	// alone must still veto every skip.
	s.Sim.PowerJitterSD = 0
	spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	res, err := s.Run(context.Background(), spec, dufp.WithSpans())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spans.SkippedRounds != 0 {
		t.Fatalf("noisy session skipped %d rounds", res.Spans.SkippedRounds)
	}
}
