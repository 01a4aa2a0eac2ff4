package dufp_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dufp"
)

// guardedDUFP returns the hardened DUFP governor: paper controller plus
// the sample guard.
func guardedDUFP(tol float64) dufp.Governor {
	cfg := dufp.DefaultControlConfig(tol)
	cfg.Guard = dufp.DefaultGuardConfig()
	return dufp.DUFP(cfg)
}

// TestZeroFaultPlanBitIdentical pins the tentpole's zero-cost contract:
// a session carrying an all-zero fault plan (even with a nonzero fault
// seed) produces byte-identical runs to a session with no fault layer at
// all, on the instrumented path included.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	ctx := context.Background()

	clean := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()))
	// Seed-only plans are disabled (no fault rates), but change the
	// executor key — so this run is recomputed from scratch, not served
	// from any cache the clean run warmed.
	planned := dufp.NewSession(
		dufp.WithExecutor(dufp.NewExecutor()),
		dufp.WithFaultPlan(dufp.FaultPlan{Seed: 5}),
	)

	a, err := clean.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	b, err := planned.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if a.Run != b.Run {
		t.Fatalf("zero-rate fault plan changed the run:\n%+v\n%+v", a.Run, b.Run)
	}
	if a.Trace.Len(0) != b.Trace.Len(0) {
		t.Fatalf("trace lengths diverged: %d vs %d", a.Trace.Len(0), b.Trace.Len(0))
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs diverged: %d vs %d", len(a.Events), len(b.Events))
	}
}

// TestFaultDeterminism pins the reproducibility contract: same seed and
// same fault plan give bit-identical runs and identical fault counters;
// a different fault-stream seed gives a different run.
func TestFaultDeterminism(t *testing.T) {
	app := fastApp(t)
	plan := dufp.FaultPlan{CounterNoiseSD: 0.05, DropSampleP: 0.02, ReadFailP: 0.02}
	ctx := context.Background()

	once := func(planSeed int64) dufp.RunResult {
		t.Helper()
		p := plan
		p.Seed = planSeed
		s := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()), dufp.WithFaultPlan(p))
		res, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: guardedDUFP(0.10)}, dufp.WithRecord())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b := once(0), once(0)
	if a.Run != b.Run {
		t.Fatalf("same plan and seed diverged:\n%+v\n%+v", a.Run, b.Run)
	}
	if a.FaultStats != b.FaultStats {
		t.Fatalf("fault counters diverged: %+v vs %+v", a.FaultStats, b.FaultStats)
	}
	if a.FaultStats.Total() == 0 {
		t.Fatal("plan injected no faults at all")
	}

	c := once(1)
	if a.Run == c.Run && a.FaultStats == c.FaultStats {
		t.Fatal("different fault-stream seeds produced identical runs")
	}
}

// TestFaultPlanIsRunIdentity pins that the plan participates in the
// executor's content-addressed keys: equal plans memoise together,
// different plans never share a cached result.
func TestFaultPlanIsRunIdentity(t *testing.T) {
	app := fastApp(t)
	e := dufp.NewExecutor()
	ctx := context.Background()
	gov := guardedDUFP(0.10)
	plan := dufp.FaultPlan{CounterNoiseSD: 0.02}

	s := dufp.NewSession(dufp.WithExecutor(e), dufp.WithFaultPlan(plan))
	if _, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: gov}); err != nil {
		t.Fatal(err)
	}
	// Same plan set on a plain session's copy: cache hit.
	s2 := dufp.NewSession(dufp.WithExecutor(e))
	s2.Faults = plan
	if _, err := s2.Run(ctx, dufp.RunSpec{App: app, Governor: gov}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Started != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want equal plans to memoise together", st)
	}
	// A different plan is a different computation.
	s.Faults.Seed = 9
	if _, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: gov}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Started != 2 {
		t.Fatalf("stats = %+v, want a second execution for the changed plan", st)
	}
}

// TestDegradedMode drives the controllers through a scheduled sensor
// outage: the guard must enter degraded mode (safe-resetting both
// levers), log the transition, and recover once the sensor answers.
func TestDegradedMode(t *testing.T) {
	app, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "memory", Duration: 12 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	session := dufp.NewSession(
		dufp.WithExecutor(dufp.NewExecutor()),
		dufp.WithFaultPlan(dufp.FaultPlan{
			OutageStart:    4 * time.Second,
			OutageDuration: 2 * time.Second,
		}),
	)
	res, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: guardedDUFP(0.10)},
		dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardStats.DegradedEntries < 1 {
		t.Fatalf("guard stats %+v: outage did not trigger degraded mode", res.GuardStats)
	}
	if res.GuardStats.Recoveries < 1 {
		t.Fatalf("guard stats %+v: controller never recovered after the outage", res.GuardStats)
	}
	if res.FaultStats.ReadFailures == 0 {
		t.Fatalf("fault stats %+v: outage injected no read failures", res.FaultStats)
	}
	kinds := map[string]int{}
	for _, e := range res.Events {
		kinds[e.Kind.String()]++
	}
	if kinds["sensor-degraded"] == 0 || kinds["sensor-recovered"] == 0 {
		t.Fatalf("event log %v lacks the degraded/recovered transitions", kinds)
	}
}

// TestTransientRetry checks that the guard absorbs sporadic injected
// EIOs: the run completes, retries are counted, and the injected
// failures are visible in the fault counters.
func TestTransientRetry(t *testing.T) {
	app := fastApp(t)
	session := dufp.NewSession(
		dufp.WithExecutor(dufp.NewExecutor()),
		dufp.WithFaultPlan(dufp.FaultPlan{ReadFailP: 0.2}),
	)
	res, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: guardedDUFP(0.10)},
		dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultStats.ReadFailures == 0 {
		t.Fatalf("fault stats %+v: no read failures injected at ReadFailP=0.2", res.FaultStats)
	}
	if res.GuardStats.Retries == 0 {
		t.Fatalf("guard stats %+v: no retries despite injected read failures", res.GuardStats)
	}
}

// TestUnguardedTransientSurfaces pins the error contract when the guard
// is off: a persistent sensor failure aborts the run with a typed,
// transient-classified error.
func TestUnguardedTransientSurfaces(t *testing.T) {
	app := fastApp(t)
	session := dufp.NewSession(
		dufp.WithExecutor(dufp.NewExecutor()),
		dufp.WithFaultPlan(dufp.FaultPlan{
			OutageStart:    time.Second,
			OutageDuration: time.Hour,
		}),
	)
	// No guard: the paper controller as-is.
	_, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))})
	if err == nil {
		t.Fatal("unguarded run survived a permanent sensor outage")
	}
	if !dufp.IsTransient(err) {
		t.Fatalf("err = %v, want transient classification", err)
	}
	if !errors.Is(err, dufp.ErrSensorTransient) {
		t.Fatalf("err = %v, want errors.Is(ErrSensorTransient)", err)
	}
	var typed *dufp.Error
	if !errors.As(err, &typed) || typed.Kind != dufp.KindSensorTransient {
		t.Fatalf("err = %v, want typed *Error with KindSensorTransient", err)
	}
}

// TestInvalidFaultPlanRejected checks plan validation at the session
// boundary.
func TestInvalidFaultPlanRejected(t *testing.T) {
	app := fastApp(t)
	session := dufp.NewSession(dufp.WithExecutor(dufp.NewExecutor()),
		dufp.WithFaultPlan(dufp.FaultPlan{ReadFailP: 2}))
	_, err := session.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if !errors.Is(err, dufp.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestParallelFaultedRuns exercises per-run injector isolation under the
// parallel executor; the race detector (make race / tier1-faults)
// verifies no fault state is shared across concurrent runs.
func TestParallelFaultedRuns(t *testing.T) {
	app := fastApp(t)
	session := dufp.NewSession(
		dufp.WithExecutor(dufp.NewExecutor(dufp.ExecWorkers(4))),
		dufp.WithFaultPlan(dufp.FaultPlan{CounterNoiseSD: 0.02, ReadFailP: 0.05}),
	)
	sum, err := session.SummarizeCtx(context.Background(), app, guardedDUFP(0.10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Time.Mean <= 0 || sum.PkgPower.Mean <= 0 {
		t.Fatalf("degenerate faulted summary: %+v", sum)
	}
}
