package dufp_test

import (
	"context"
	"strings"
	"testing"

	"dufp"
)

// TestInstrumentedRunBitIdentical is the acceptance gate of the telemetry
// layer: keeping a run's record (trace, event log, timeline join and
// spans) must not perturb the simulation. The same (app, governor, seed,
// index) run, executed plain and instrumented on isolated executors,
// must produce bit-identical Run measurements.
func TestInstrumentedRunBitIdentical(t *testing.T) {
	ctx := context.Background()
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))

	plain := dufp.NewSession().OnExecutor(dufp.NewExecutor())
	refRes, err := plain.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	ref := refRes.Run

	instr := dufp.NewSession().OnExecutor(dufp.NewExecutor())
	instrRes, err := instr.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	got, tl := instrRes.Run, instrRes.Timeline()
	if got != ref {
		t.Fatalf("instrumented run diverged from plain run:\nplain: %+v\ninstr: %+v", ref, got)
	}
	if len(tl.Entries) == 0 {
		t.Fatal("instrumented run produced an empty timeline")
	}
}

// TestTimelineCorrelatesDecisions checks the joined stream: a DUFP run's
// timeline must contain decision entries whose trace context (nearest
// sample) is populated.
func TestTimelineCorrelatesDecisions(t *testing.T) {
	ctx := context.Background()
	app := fastApp(t)
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))

	s := dufp.NewSession().OnExecutor(dufp.NewExecutor())
	res, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline()
	decisions := tl.Decisions()
	if len(decisions) == 0 {
		t.Fatal("DUFP timeline has no decisions")
	}
	withContext := 0
	for _, d := range decisions {
		if d.CoreGHz > 0 && d.PkgW > 0 {
			withContext++
		}
	}
	if withContext == 0 {
		t.Fatal("no decision entry carries trace context")
	}
	// The stream must be time-ordered.
	for i := 1; i < len(tl.Entries); i++ {
		if tl.Entries[i].TimeS < tl.Entries[i-1].TimeS {
			t.Fatalf("entries out of order at %d: %v after %v", i, tl.Entries[i].TimeS, tl.Entries[i-1].TimeS)
		}
	}
}

// TestMetricsRegistryPublishes checks that an isolated executor publishes
// scheduler metrics to the registry it was given, and that the rendered
// Prometheus exposition carries them.
func TestMetricsRegistryPublishes(t *testing.T) {
	ctx := context.Background()
	app := fastApp(t)
	gov := dufp.Baseline()

	reg := dufp.NewMetricsRegistry()
	s := dufp.NewSession().OnExecutor(dufp.NewExecutor(dufp.ExecRegistry(reg)))
	if _, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: gov}); err != nil {
		t.Fatal(err)
	}
	// Second identical submission is a cache hit.
	if _, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: gov}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"exec_runs_completed_total 1",
		"exec_cache_hits_total 1",
		"# TYPE exec_run_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// decisionCounts reads control_events_total's DUFP series, by kind.
func decisionCounts(t *testing.T) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, f := range dufp.Metrics().Snapshot() {
		if f.Name != "control_events_total" {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["governor"] == "DUFP" {
				out[s.Labels["kind"]] = s.Value
			}
		}
	}
	return out
}

// TestPlainRunCountsEveryDecision pins that a plain run, which keeps no
// decision log, still counts every decision: it and a recorded run of
// the same spec move control_events_total by the same amounts, kind by
// kind.
func TestPlainRunCountsEveryDecision(t *testing.T) {
	app, err := dufp.AppNamed("CG")
	if err != nil {
		t.Fatal(err)
	}
	s := dufp.NewSession().OnExecutor(dufp.NewExecutor())
	spec := dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}
	ctx := context.Background()
	before := decisionCounts(t)
	if _, err := s.Run(ctx, spec); err != nil {
		t.Fatal(err)
	}
	mid := decisionCounts(t)
	rec, err := s.Run(ctx, spec, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	after := decisionCounts(t)
	if len(rec.Events) == 0 {
		t.Fatal("the recorded run kept no decision log")
	}
	moved := false
	for kind := range after {
		plain, recorded := mid[kind]-before[kind], after[kind]-mid[kind]
		if plain != recorded {
			t.Errorf("%s: the plain run counted %v decisions, the recorded run %v", kind, plain, recorded)
		}
		moved = moved || plain > 0
	}
	if !moved {
		t.Error("neither run counted a decision")
	}
}
