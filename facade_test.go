package dufp_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dufp"
)

func TestSyntheticBuildersThroughFacade(t *testing.T) {
	steady, err := dufp.SteadyApp(dufp.SteadyConfig{OIClass: "memory", Duration: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	alt, err := dufp.AlternatorApp(dufp.AlternatorConfig{
		ComputeDur: 100 * time.Millisecond,
		MemoryDur:  700 * time.Millisecond,
		Cycles:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	burst, err := dufp.BurstApp(dufp.BurstConfig{
		BaseDur:       1200 * time.Millisecond,
		BurstDur:      60 * time.Millisecond,
		Cycles:        4,
		BurstFlopFrac: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	ramp, err := dufp.RampApp("r", 5, 800*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	// Every builder's output must actually run under DUFP.
	s := dufp.NewSession()
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	for _, app := range []dufp.App{steady, alt, burst, ramp} {
		res, err := s.Run(context.Background(), dufp.RunSpec{App: app, Governor: gov})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if res.Run.Time <= 0 || res.Run.AvgPkgPower <= 0 {
			t.Fatalf("%s: degenerate run %+v", app.Name, res.Run)
		}
	}
}

func TestAppJSONThroughFacade(t *testing.T) {
	app, _ := dufp.AppByName("UA")
	var buf bytes.Buffer
	if err := dufp.WriteAppJSON(&buf, app); err != nil {
		t.Fatal(err)
	}
	back, err := dufp.ReadAppJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "UA" {
		t.Fatalf("round trip lost the app: %q", back.Name)
	}
}

func TestRunWithEventsFacade(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("FT")
	ctx := context.Background()
	res, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Time <= 0 {
		t.Fatal("degenerate run")
	}
	if len(res.Events) == 0 {
		t.Fatal("no events from DUFP on FT (it has detectable phase changes)")
	}
	phaseChanges := 0
	for _, e := range res.Events {
		if e.Kind.String() == "phase-change" {
			phaseChanges++
		}
	}
	// FT alternates FFT and transpose phases; most transitions are
	// detected.
	if phaseChanges < 5 {
		t.Fatalf("only %d phase changes detected on FT", phaseChanges)
	}

	// Baseline governor records no events.
	res, err = s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != nil {
		t.Fatal("baseline produced events")
	}
}

func TestDUFPFGovernorFacade(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("EP")
	res, err := s.Run(context.Background(), dufp.RunSpec{App: app, Governor: dufp.DUFPF(dufp.DefaultControlConfig(0.10))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Governor != "DUFP-F" || res.Run.Slowdown != 0.10 {
		t.Fatalf("identity = %s/%v", res.Run.Governor, res.Run.Slowdown)
	}
}

func TestDNPCGovernorFacade(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("EP")
	res, err := s.Run(context.Background(), dufp.RunSpec{App: app, Governor: dufp.DNPC(dufp.DefaultControlConfig(0.10))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Governor != "DNPC" {
		t.Fatalf("governor = %s", res.Run.Governor)
	}
}

func TestMonitorOverheadSlowsRuns(t *testing.T) {
	app, _ := dufp.AppByName("EP")
	free := dufp.NewSession()
	costly := dufp.NewSession()
	costly.MonitorOverhead = 2 * time.Millisecond
	gov := dufp.DUFP(dufp.DefaultControlConfig(0.10))
	ctx := context.Background()

	a, err := free.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	b, err := costly.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	if b.Run.Time <= a.Run.Time {
		t.Fatalf("monitoring overhead did not slow the run: %v vs %v", b.Run.Time, a.Run.Time)
	}
}
