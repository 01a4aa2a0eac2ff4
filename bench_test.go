package dufp_test

// Benchmarks that regenerate every table and figure of the paper. Each
// BenchmarkFig*/BenchmarkTable* iteration executes the full experiment at a
// reduced repetition count (the cmd/dufpbench tool runs the 10-run paper
// protocol); custom metrics report the headline quantity of each artefact
// so `go test -bench` output doubles as a compact reproduction summary.
//
// Micro-benchmarks at the bottom measure the substrate itself (simulator
// tick rate, MSR access, model evaluation), and the Ablation benchmarks
// compare controller variants on the same workload.

import (
	"context"
	"io"
	"testing"
	"time"

	"dufp"
	"dufp/internal/experiment"
	"dufp/internal/model"
	"dufp/internal/msr"
	"dufp/internal/sim"
	"dufp/internal/units"
)

// benchOptions returns a reduced-protocol configuration for benchmarks.
func benchOptions(runs int) experiment.Options {
	opts := experiment.DefaultOptions()
	opts.Runs = runs
	opts.Session.Seed = 42
	return opts
}

func BenchmarkTableI(b *testing.B) {
	opts := benchOptions(1)
	for i := 0; i < b.N; i++ {
		tab := experiment.TableI(opts)
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1a(b *testing.B) {
	opts := benchOptions(2)
	opts.Apps = []string{"CG"}
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig1a(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1bc(b *testing.B) {
	opts := benchOptions(2)
	opts.Apps = []string{"CG"}
	for i := 0; i < b.N; i++ {
		if _, _, err := experiment.Fig1bc(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// gridFor runs the Fig 3/Fig 4 measurement campaign once per benchmark
// iteration and hands the grid to report.
func gridBench(b *testing.B, report func(*experiment.Grid) (experiment.Table, error), metric func(*experiment.Grid) (string, float64)) {
	b.Helper()
	opts := benchOptions(2)
	opts.Tolerances = []float64{0.10}
	var last *experiment.Grid
	for i := 0; i < b.N; i++ {
		g, err := experiment.RunGrid(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := report(g); err != nil {
			b.Fatal(err)
		}
		last = g
	}
	if last != nil && metric != nil {
		name, v := metric(last)
		b.ReportMetric(v, name)
	}
}

func cgDUFP10(g *experiment.Grid) dufp.Comparison {
	c, err := g.Compare(experiment.CellKey{App: "CG", Tolerance: 0.10, Gov: experiment.GovDUFP})
	if err != nil {
		panic(err)
	}
	return c
}

func BenchmarkFig3a(b *testing.B) {
	gridBench(b, experiment.Fig3a, func(g *experiment.Grid) (string, float64) {
		return "CG@10%_slowdown_%", cgDUFP10(g).TimeRatio.OverheadPercent()
	})
}

func BenchmarkFig3b(b *testing.B) {
	gridBench(b, experiment.Fig3b, func(g *experiment.Grid) (string, float64) {
		return "CG@10%_power_savings_%", cgDUFP10(g).PkgPowerRatio.SavingsPercent()
	})
}

func BenchmarkFig3c(b *testing.B) {
	gridBench(b, experiment.Fig3c, func(g *experiment.Grid) (string, float64) {
		return "CG@10%_energy_savings_%", cgDUFP10(g).TotalEnergyRatio.SavingsPercent()
	})
}

func BenchmarkFig4(b *testing.B) {
	gridBench(b, experiment.Fig4, func(g *experiment.Grid) (string, float64) {
		return "CG@10%_dram_savings_%", cgDUFP10(g).DramPowerRatio.SavingsPercent()
	})
}

func BenchmarkFig5(b *testing.B) {
	opts := benchOptions(1)
	var res experiment.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Fig5(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	var avg float64
	n := 0
	for p := range res.DUFP.Points.Points(0) {
		avg += p.CoreFreq.GHz()
		n++
	}
	if n > 0 {
		b.ReportMetric(avg/float64(n), "DUFP_avg_core_GHz")
	}
}

// Ablation benchmarks: one full CG run per controller variant at 10 %
// tolerance, reporting the power savings each achieves. They quantify the
// paper's claims that (a) capping adds savings over uncore scaling alone
// and (b) a frequency-model baseline (DNPC) caps less effectively than
// FLOPS-based DUFP.
func ablation(b *testing.B, gov dufp.Governor) {
	b.Helper()
	ctx := context.Background()
	session := dufp.NewSession()
	app, _ := dufp.AppByName("CG")
	base, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.Baseline()})
	if err != nil {
		b.Fatal(err)
	}
	var res dufp.RunResult
	for i := 0; i < b.N; i++ {
		res, err = session.Run(ctx, dufp.RunSpec{App: app, Governor: gov})
		if err != nil {
			b.Fatal(err)
		}
	}
	run, baseRun := res.Run, base.Run
	b.ReportMetric((1-float64(run.AvgPkgPower)/float64(baseRun.AvgPkgPower))*100, "power_savings_%")
	b.ReportMetric((run.Time.Seconds()/baseRun.Time.Seconds()-1)*100, "slowdown_%")
}

func BenchmarkAblationDUF(b *testing.B) {
	ablation(b, dufp.DUF(dufp.DefaultControlConfig(0.10)))
}

func BenchmarkAblationDUFP(b *testing.B) {
	ablation(b, dufp.DUFP(dufp.DefaultControlConfig(0.10)))
}

func BenchmarkAblationDNPC(b *testing.B) {
	ablation(b, dufp.DNPC(dufp.DefaultControlConfig(0.10)))
}

func BenchmarkAblationStatic110W(b *testing.B) {
	ablation(b, dufp.StaticCap(110*dufp.Watt, 110*dufp.Watt))
}

// Micro-benchmarks of the substrate.

func BenchmarkSimSecond(b *testing.B) {
	// One simulated second of the four-socket node per iteration.
	cfg := sim.DefaultConfig()
	shape := model.PhaseShape{
		Name:         "bench",
		FlopFrac:     0.2,
		MemFrac:      0.5,
		ComputeShare: 0.6,
		Overlap:      0.4,
		BWUncoreKnee: 2.0 * units.Gigahertz,
		Duration:     time.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Load([]model.PhaseShape{shape}); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(sim.RunOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMSRRead(b *testing.B) {
	m, err := sim.New(sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dev := m.MSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Read(0, msr.MSRPkgPowerLimit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerLimitCodec(b *testing.B) {
	u := msr.DefaultUnits()
	in := msr.PkgPowerLimit{
		PL1: msr.PowerLimit{Limit: 125, Window: 1, Enabled: true},
		PL2: msr.PowerLimit{Limit: 150, Window: 0.01, Enabled: true},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := msr.EncodePkgPowerLimit(u, in)
		_ = msr.DecodePkgPowerLimit(u, raw)
	}
}

func BenchmarkKineticsAt(b *testing.B) {
	spec := dufp.XeonGold6130()
	k := model.MustCompile(spec, model.PhaseShape{
		Name:         "bench",
		FlopFrac:     0.1,
		MemFrac:      0.6,
		ComputeShare: 0.5,
		Overlap:      0.4,
		BWUncoreKnee: 2.0 * units.Gigahertz,
		BWCoreExp:    0.25,
		BWCoreKnee:   1.3 * units.Gigahertz,
		Duration:     time.Second,
	})
	f := 2.3 * units.Gigahertz
	u := 1.9 * units.Gigahertz
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.At(f, u)
	}
}

func BenchmarkPackagePower(b *testing.B) {
	p := model.DefaultPowerParams()
	spec := dufp.XeonGold6130()
	load := model.Load{FlopUtil: 0.3, MemUtil: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.PackagePower(&spec, 2.5*units.Gigahertz, 2.0*units.Gigahertz, load)
	}
}

// Ablation benchmarks of the reproduction's own design choices (DESIGN.md
// §7): each disables one mechanism and reports how far CG@10 % lands from
// the tolerance. The calibrated controller respects it; the ablated ones
// overshoot.

func ablationCfg(mutate func(*dufp.ControlConfig)) dufp.Governor {
	cfg := dufp.DefaultControlConfig(0.10)
	mutate(&cfg)
	return dufp.DUFP(cfg)
}

func BenchmarkAblationNoRateBudget(b *testing.B) {
	ablation(b, ablationCfg(func(c *dufp.ControlConfig) { c.AblateRateBudget = true }))
}

func BenchmarkAblationNoLatch(b *testing.B) {
	ablation(b, ablationCfg(func(c *dufp.ControlConfig) { c.AblateLatch = true }))
}

func BenchmarkAblationNoProvisionalRef(b *testing.B) {
	ablation(b, ablationCfg(func(c *dufp.ControlConfig) { c.AblateProvisionalRef = true }))
}

func BenchmarkAblationDUFPF(b *testing.B) {
	ablation(b, dufp.DUFPF(dufp.DefaultControlConfig(0.10)))
}
