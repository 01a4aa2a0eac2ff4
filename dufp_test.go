package dufp_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"dufp"
)

func TestSuiteExported(t *testing.T) {
	apps := dufp.Suite()
	if len(apps) != 10 {
		t.Fatalf("suite has %d applications, want 10", len(apps))
	}
	if _, ok := dufp.AppByName("LAMMPS"); !ok {
		t.Fatal("LAMMPS missing")
	}
}

func TestYeti2Exported(t *testing.T) {
	topo := dufp.Yeti2()
	if topo.Sockets != 4 || topo.Spec.Cores != 16 {
		t.Fatalf("yeti-2 = %d×%d cores", topo.Sockets, topo.Spec.Cores)
	}
	if dufp.XeonGold6130().DefaultPL1 != 125*dufp.Watt {
		t.Fatal("PL1 != 125 W")
	}
}

func TestSessionRunDeterministic(t *testing.T) {
	ctx := context.Background()
	s := dufp.NewSession()
	app, _ := dufp.AppByName("EP")
	ra, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Run, rb.Run
	if a.Time != b.Time || a.PkgEnergy != b.PkgEnergy {
		t.Fatalf("same run index differs: %v/%v vs %v/%v", a.Time, a.PkgEnergy, b.Time, b.PkgEnergy)
	}
	rc, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline(), Idx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time == rc.Run.Time {
		t.Fatal("different run indices produced identical times (no jitter)")
	}
}

func TestSessionGovernorIdentity(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("EP")
	cfg := dufp.DefaultControlConfig(0.05)

	ctx := context.Background()
	res, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUFP(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Governor != "DUFP" || res.Run.Slowdown != 0.05 {
		t.Fatalf("identity = %s/%v", res.Run.Governor, res.Run.Slowdown)
	}
	res, err = s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUF(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Governor != "DUF" {
		t.Fatalf("governor = %s", res.Run.Governor)
	}
	res, err = s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Governor != "default" {
		t.Fatalf("baseline governor = %s", res.Run.Governor)
	}
}

func TestSummarizeProtocol(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("EP")
	ctx := context.Background()
	sum, err := s.SummarizeCtx(ctx, app, dufp.Baseline(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 2 { // 4 runs, outliers dropped
		t.Fatalf("kept %d runs, want 2", sum.N)
	}
	if sum.Time.Mean <= 0 || sum.PkgPower.Mean <= 0 {
		t.Fatalf("degenerate summary: %+v", sum)
	}
	if _, err := s.SummarizeCtx(ctx, app, dufp.Baseline(), 0); err == nil {
		t.Fatal("accepted zero runs")
	}
}

func TestRunTraced(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("EP")
	res, err := s.Run(context.Background(),
		dufp.RunSpec{App: app, Governor: dufp.DUFP(dufp.DefaultControlConfig(0.10))}, dufp.WithRecord())
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Trace
	if rec.Len(0) == 0 {
		t.Fatal("no trace points")
	}
	pts := slices.Collect(rec.Points(0))
	last := pts[len(pts)-1]
	if last.Time > res.Run.Time+res.Run.Time/10 {
		t.Fatalf("trace extends past the run: %v > %v", last.Time, res.Run.Time)
	}
}

func TestStaticCapGovernor(t *testing.T) {
	s := dufp.NewSession()
	app, _ := dufp.AppByName("CG")
	ctx := context.Background()
	baseRes, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		t.Fatal(err)
	}
	cappedRes, err := s.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.StaticCap(100*dufp.Watt, 100*dufp.Watt)})
	if err != nil {
		t.Fatal(err)
	}
	base, capped := baseRes.Run, cappedRes.Run
	if capped.AvgPkgPower >= base.AvgPkgPower {
		t.Fatalf("100 W static cap did not cut power: %v vs %v", capped.AvgPkgPower, base.AvgPkgPower)
	}
	if capped.Time <= base.Time {
		t.Fatalf("100 W static cap did not slow CG: %v vs %v", capped.Time, base.Time)
	}
}

// TestPaperHeadlines verifies the reproduction's headline shapes end to
// end, the way EXPERIMENTS.md reports them (fewer runs for test speed).
func TestPaperHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("headline campaign in -short mode")
	}
	s := dufp.NewSession()
	const runs = 3

	baseline := func(name string) dufp.Summary {
		app, ok := dufp.AppByName(name)
		if !ok {
			t.Fatalf("no app %s", name)
		}
		sum, err := s.SummarizeCtx(context.Background(), app, dufp.Baseline(), runs)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	under := func(name string, gov dufp.Governor) dufp.Summary {
		app, _ := dufp.AppByName(name)
		sum, err := s.SummarizeCtx(context.Background(), app, gov, runs)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}

	cfg10 := dufp.DefaultControlConfig(0.10)

	// CG @ 10 %: DUFP saves clearly more processor power than DUF
	// (paper: 13.98 % vs ~7 %), respects the tolerance within the
	// violation margin the paper itself reports (≤3.17 %), and saves
	// energy too.
	cgBase := baseline("CG")
	cgDUF := dufp.CompareRuns(under("CG", dufp.DUF(cfg10)), cgBase)
	cgDUFP := dufp.CompareRuns(under("CG", dufp.DUFP(cfg10)), cgBase)
	if !cgDUFP.RespectsSlowdown(0.032) {
		t.Errorf("CG@10%% DUFP slowdown %.2f%% beyond tolerance+margin", cgDUFP.TimeRatio.OverheadPercent())
	}
	if gain := cgDUF.PkgPowerRatio.Mean - cgDUFP.PkgPowerRatio.Mean; gain < 0.02 {
		t.Errorf("CG@10%%: DUFP power advantage over DUF = %.1f pts, want > 2", gain*100)
	}
	if cgDUFP.PkgPowerRatio.SavingsPercent() < 10 {
		t.Errorf("CG@10%% DUFP power savings %.2f%%, want >10 (paper 13.98)", cgDUFP.PkgPowerRatio.SavingsPercent())
	}
	if cgDUFP.TotalEnergyRatio.Mean > 1.0 {
		t.Errorf("CG@10%% DUFP loses energy (ratio %.3f); paper saves 4.7%%", cgDUFP.TotalEnergyRatio.Mean)
	}

	// EP: uncore dominates; savings are large and the tolerance holds
	// (paper: best savings 24.27 %).
	epBase := baseline("EP")
	epDUFP := dufp.CompareRuns(under("EP", dufp.DUFP(cfg10)), epBase)
	if !epDUFP.RespectsSlowdown(0.005) {
		t.Errorf("EP@10%% slowdown %.2f%%", epDUFP.TimeRatio.OverheadPercent())
	}
	if epDUFP.PkgPowerRatio.SavingsPercent() < 12 {
		t.Errorf("EP@10%% savings %.2f%%, want >12", epDUFP.PkgPowerRatio.SavingsPercent())
	}

	// HPL: CPU-intensive at the PL1 boundary; no energy loss (paper:
	// "DUFP still provides no or small energy savings, but no energy
	// loss").
	hplBase := baseline("HPL")
	hplDUFP := dufp.CompareRuns(under("HPL", dufp.DUFP(cfg10)), hplBase)
	if hplDUFP.TotalEnergyRatio.Mean > 1.005 {
		t.Errorf("HPL@10%% energy ratio %.3f: loses energy", hplDUFP.TotalEnergyRatio.Mean)
	}
	if !hplDUFP.RespectsSlowdown(0.005) {
		t.Errorf("HPL@10%% slowdown %.2f%%", hplDUFP.TimeRatio.OverheadPercent())
	}

	// Fig 5 headline: DUFP lowers the average core frequency on CG while
	// DUF leaves it at the maximum all-core turbo.
	if math.Abs(cgDUF.CoreFreqGHz-2.8) > 0.05 {
		t.Errorf("CG@10%% DUF avg core = %.2f GHz, want ≈2.8", cgDUF.CoreFreqGHz)
	}
	if cgDUFP.CoreFreqGHz > cgDUF.CoreFreqGHz-0.1 {
		t.Errorf("CG@10%% DUFP avg core %.2f GHz not below DUF %.2f GHz", cgDUFP.CoreFreqGHz, cgDUF.CoreFreqGHz)
	}
}

func TestDefaultPL(t *testing.T) {
	s := dufp.NewSession()
	pl1, pl2 := s.DefaultPL()
	if pl1 != 125*dufp.Watt || pl2 != 150*dufp.Watt {
		t.Fatalf("defaults = %v/%v", pl1, pl2)
	}
}
