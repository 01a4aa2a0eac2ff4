package dufp_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dufp"
)

// runBitDiff names the first field in which a and b differ, comparing
// floating-point fields by their bits; "" means the runs are identical.
func runBitDiff(a, b dufp.Run) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		same := fa.Interface() == fb.Interface()
		if fa.Kind() == reflect.Float64 {
			same = math.Float64bits(fa.Float()) == math.Float64bits(fb.Float())
		}
		if !same {
			return va.Type().Field(i).Name
		}
	}
	return ""
}

// fastTicksTotal reads the simulator's process-wide macro-stepped tick
// counter.
func fastTicksTotal(t *testing.T) float64 {
	t.Helper()
	for _, f := range dufp.Metrics().Snapshot() {
		if f.Name == "sim_fast_ticks_total" {
			return f.Series[0].Value
		}
	}
	t.Fatal("sim_fast_ticks_total is not registered")
	return 0
}

// TestExactPhysicsBitIdentical sweeps the public run path — governors ×
// power jitter and measurement noise × fault plans — asserting that a
// session pinned to the simulator's reference per-tick loop
// (WithExactPhysics) produces runs and traces bit-identical to the
// default session, which is free to take the event-horizon macro-step
// whenever a window qualifies.
func TestExactPhysicsBitIdentical(t *testing.T) {
	memory, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "memory", Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	compute, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "compute", Duration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Constant power and noise-free monitors make the rounds of a long
	// steady phase repeat themselves once the controllers settle.
	physics := []struct {
		name      string
		app       dufp.App
		jitter    float64
		noiseFree bool
	}{
		{"jitter=0", memory, 0, false},
		{"jitter=0.4", memory, 0.4, false},
		{"jitter=0/noise=0", compute, 0, true},
	}
	// Guarded controller configs so faulted runs survive injected sample
	// errors (the guard is part of the controllers under test either way).
	ctrl := dufp.DefaultControlConfig(0.10)
	ctrl.Guard = dufp.DefaultGuardConfig()
	governors := []struct {
		name string
		gov  dufp.Governor
	}{
		{"dufp", dufp.DUFP(ctrl)},
		{"duf", dufp.DUF(ctrl)},
		{"baseline", dufp.Baseline()},
		{"staticcap", dufp.StaticCap(110*dufp.Watt, 110*dufp.Watt)},
	}
	plans := []struct {
		name string
		plan dufp.FaultPlan
	}{
		{"clean", dufp.FaultPlan{}},
		{"faulted", dufp.FaultPlan{CounterNoiseSD: 0.05, DropSampleP: 0.02, Seed: 3}},
	}
	ctx := context.Background()

	for _, g := range governors {
		for _, ph := range physics {
			for _, p := range plans {
				name := fmt.Sprintf("%s/%s/%s", g.name, ph.name, p.name)
				t.Run(name, func(t *testing.T) {
					build := func(exact bool) dufp.Session {
						opts := []dufp.SessionOption{dufp.WithExecutor(dufp.NewExecutor())}
						if p.plan.Enabled() {
							opts = append(opts, dufp.WithFaultPlan(p.plan))
						}
						if exact {
							opts = append(opts, dufp.WithExactPhysics())
						}
						s := dufp.NewSession(opts...)
						s.Sim.PowerJitterSD = ph.jitter
						if ph.noiseFree {
							s.NoiseSD = 0
						}
						return s
					}
					spec := dufp.RunSpec{App: ph.app, Governor: g.gov}
					free, err := build(false).Run(ctx, spec, dufp.WithRecord())
					if err != nil {
						t.Fatal(err)
					}
					exact, err := build(true).Run(ctx, spec, dufp.WithRecord())
					if err != nil {
						t.Fatal(err)
					}
					if f := runBitDiff(free.Run, exact.Run); f != "" {
						t.Fatalf("runs diverge in %s:\nfree:  %+v\nexact: %+v", f, free.Run, exact.Run)
					}
					if free.Trace.Len(0) != exact.Trace.Len(0) {
						t.Fatalf("trace lengths diverge: %d vs %d", free.Trace.Len(0), exact.Trace.Len(0))
					}
					if free.Trace.Sockets() != exact.Trace.Sockets() {
						t.Fatalf("socket counts diverge: %d vs %d", free.Trace.Sockets(), exact.Trace.Sockets())
					}
					for s := 0; s < free.Trace.Sockets(); s++ {
						fs, es := slices.Collect(free.Trace.Points(s)), slices.Collect(exact.Trace.Points(s))
						if len(fs) != len(es) {
							t.Fatalf("socket %d trace lengths diverge: %d vs %d", s, len(fs), len(es))
						}
						for j := range fs {
							if fs[j] != es[j] {
								t.Fatalf("socket %d trace[%d] diverges:\nfree:  %+v\nexact: %+v", s, j, fs[j], es[j])
							}
						}
					}
				})
			}
		}
	}
}

// TestSessionRoundSkipping sweeps the public run path with a noise-free,
// jitter-free session, where the controllers settle into identical
// rounds over a long steady phase, asserting that a governed run stays
// bit-identical to the pinned reference loop and that no control round
// is skipped: the span summary records as many real rounds as the
// reference loop ran.
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
				s.Sim.PowerJitterSD = 0
				s.NoiseSD = 0
				return s
			}
			spec := dufp.RunSpec{App: app, Governor: g.gov}
			free, err := build(false).Run(ctx, spec, dufp.WithRecord())
			if err != nil {
				t.Fatal(err)
			}
			exact, err := build(true).Run(ctx, spec, dufp.WithRecord())
			if err != nil {
				t.Fatal(err)
			}
			if f := runBitDiff(free.Run, exact.Run); f != "" {
				t.Fatalf("runs diverge in %s:\nfree:  %+v\nexact: %+v", f, free.Run, exact.Run)
			}
			if free.Spans == nil || exact.Spans == nil {
				t.Fatal("span summaries missing")
			}
			if exact.Spans.Rounds == 0 {
				t.Fatalf("%s: reference run recorded no rounds", g.name)
			}
			if free.Spans.Rounds != exact.Spans.Rounds {
				t.Fatalf("%s: free run recorded %d rounds, reference loop %d",
					g.name, free.Spans.Rounds, exact.Spans.Rounds)
			}
		})
	}
}

// TestExactPhysicsFig3Grid runs the whole Fig-3 grid — every application
// under the baseline and under DUF and DUFP at each tolerance, one run
// per configuration — on a default session and on one pinned to the
// reference loop, and requires every run to match bit for bit. Each
// session has its own executor, so the runs also exercise the pooled
// machines' Reset. The default side must really macro-step and the
// exact side must not.
func TestExactPhysicsFig3Grid(t *testing.T) {
	var specs []dufp.RunSpec
	for _, app := range dufp.Suite() {
		specs = append(specs, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
		for _, tol := range []float64{0, 0.05, 0.10, 0.20} {
			cfg := dufp.DefaultControlConfig(tol)
			specs = append(specs,
				dufp.RunSpec{App: app, Governor: dufp.DUF(cfg)},
				dufp.RunSpec{App: app, Governor: dufp.DUFP(cfg)})
		}
	}
	if len(specs) != 90 {
		t.Fatalf("grid has %d configurations, want 90", len(specs))
	}
	ctx := context.Background()
	campaign := func(s dufp.Session) ([]dufp.Run, float64) {
		before := fastTicksTotal(t)
		runs := make([]dufp.Run, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, spec := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := s.Run(ctx, spec)
				runs[i], errs[i] = res.Run, err
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s/%s: %v", specs[i].App.Name, specs[i].Governor.ID(), err)
			}
		}
		return runs, fastTicksTotal(t) - before
	}
	free, freeFast := campaign(dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor())))
	exact, exactFast := campaign(dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()), dufp.WithExactPhysics()))
	if freeFast <= 0 {
		t.Errorf("default session macro-stepped %v ticks, want > 0", freeFast)
	}
	if exactFast != 0 {
		t.Errorf("exact session macro-stepped %v ticks, want 0", exactFast)
	}
	for i := range specs {
		if f := runBitDiff(free[i], exact[i]); f != "" {
			t.Errorf("%s/%s: runs diverge in %s:\nfree:  %+v\nexact: %+v",
				specs[i].App.Name, specs[i].Governor.ID(), f, free[i], exact[i])
		}
	}
}
