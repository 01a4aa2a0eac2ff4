package experiment

import (
	"fmt"
	"time"

	"dufp"
	"dufp/internal/metrics"
	"dufp/internal/trace"
	"dufp/internal/units"
)

// TableI renders the target architecture characteristics.
func TableI(opts Options) Table {
	spec := opts.Session.Sim.Topo.Spec
	sockets := opts.Session.Sim.Topo.Sockets
	return Table{
		ID:    "Table I",
		Title: "Target architecture characteristics",
		Headers: []string{
			"cores", "uncore frequency (GHz)", "long term (W)", "short term (W)",
		},
		Rows: [][]string{{
			fmt.Sprintf("%d", sockets*spec.Cores),
			fmt.Sprintf("[%.1f-%.1f]", spec.MinUncoreFreq.GHz(), spec.MaxUncoreFreq.GHz()),
			fmt.Sprintf("%.0f", spec.DefaultPL1.Watts()),
			fmt.Sprintf("%.0f", spec.DefaultPL2.Watts()),
		}},
		Notes: []string{fmt.Sprintf("%d× %s", sockets, spec.String())},
	}
}

// fig1Tolerance is the DUF tolerance used in the motivation experiment;
// the paper does not state it, so the 5 % middle setting is used.
const fig1Tolerance = 0.05

// Fig1Config is one bar group of the motivation figure.
type Fig1Config struct {
	Label string
	Cap   units.Power // 0 = no cap
}

// fig1Configs returns the paper's Fig 1a configurations.
func fig1Configs() []Fig1Config {
	return []Fig1Config{
		{Label: "UFS", Cap: 0},
		{Label: "UFS + 110 W", Cap: 110 * units.Watt},
		{Label: "UFS + 100 W", Cap: 100 * units.Watt},
	}
}

// Fig1a reproduces the motivation study: CG under uncore frequency scaling
// with and without whole-run static power caps; execution-time ratios over
// the default run and power ratios over the processor budget (PL1).
func Fig1a(opts Options) (Table, error) {
	app, _ := dufp.AppByName("CG")
	cfg := dufp.DefaultControlConfig(fig1Tolerance)
	budget := float64(opts.Session.Sim.Topo.Spec.DefaultPL1) * float64(opts.Session.Sim.Topo.Sockets)
	ctx, session := opts.campaign()

	base, err := session.SummarizeCtx(ctx, app, dufp.Baseline(), opts.Runs)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:      "Fig 1a",
		Title:   "Power capping on CG (whole run): ratios over default time / power budget",
		Headers: []string{"config", "time ratio", "power/budget", "power savings"},
		Rows: [][]string{{
			"default", "1.000",
			fmt.Sprintf("%.3f", base.PkgPower.Mean/budget),
			pctu((1 - base.PkgPower.Mean/budget) * 100),
		}},
		Notes: []string{
			"paper: UFS+110 W saves ~16 % power at ~7 % overhead; UFS+100 W saves ~24 % at ~12 %",
		},
	}
	for _, c := range fig1Configs() {
		gov := dufp.DUF(cfg)
		if c.Cap > 0 {
			gov = dufp.StaticCapDUF(cfg, c.Cap, c.Cap)
		}
		sum, err := session.SummarizeCtx(ctx, app, gov, opts.Runs)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			c.Label,
			fmt.Sprintf("%.3f", sum.Time.Mean/base.Time.Mean),
			fmt.Sprintf("%.3f", sum.PkgPower.Mean/budget),
			pctu((1 - sum.PkgPower.Mean/budget) * 100),
		})
	}
	return t, nil
}

// cgPrologue returns the nominal duration of CG's memory-intensive first
// phase, the window the partial caps of Fig 1b/1c target.
func cgPrologue() time.Duration {
	app, _ := dufp.AppByName("CG")
	return app.Loops[0].Body[0].Duration
}

// Fig1bc reproduces the partial power capping experiment: the caps apply
// only during CG's first (highly memory-intensive) phase. The first table
// reports the power ratio over the budget measured within that phase
// (Fig 1b); the second reports the total execution-time ratio (Fig 1c).
func Fig1bc(opts Options) (Table, Table, error) {
	app, _ := dufp.AppByName("CG")
	cfg := dufp.DefaultControlConfig(fig1Tolerance)
	spec := opts.Session.Sim.Topo.Spec
	budget := float64(spec.DefaultPL1) * float64(opts.Session.Sim.Topo.Sockets)
	window := cgPrologue()
	ctx, session := opts.campaign()

	type row struct {
		label      string
		phasePower float64
		timeRatio  float64
	}

	// Only the window average is needed, so the trace streams into a
	// WindowStats sink instead of materialising a recording: memory stays
	// O(sockets) however long the run. Sink-observed runs execute fresh
	// through the worker pool, with the measurement written through to the
	// caches.
	measure := func(gov dufp.Governor) (float64, float64, error) {
		var phasePower, total float64
		for i := 0; i < opts.Runs; i++ {
			ws := trace.NewWindowStats(0, window)
			res, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: gov, Idx: i}, dufp.WithTraceSink(ws))
			if err != nil {
				return 0, 0, err
			}
			var p float64
			for s := 0; s < opts.Session.Sim.Topo.Sockets; s++ {
				p += float64(ws.AvgPower(s))
			}
			phasePower += p
			total += res.Run.Time.Seconds()
		}
		n := float64(opts.Runs)
		return phasePower / n, total / n, nil
	}

	basePhase, baseTime, err := measure(dufp.Baseline())
	if err != nil {
		return Table{}, Table{}, err
	}

	rows := []row{{label: "default", phasePower: basePhase, timeRatio: 1}}
	for _, c := range fig1Configs() {
		gov := dufp.DUF(cfg)
		if c.Cap > 0 {
			gov = dufp.TimedCap(cfg, c.Cap, c.Cap, window)
		}
		phase, total, err := measure(gov)
		if err != nil {
			return Table{}, Table{}, err
		}
		rows = append(rows, row{label: c.Label, phasePower: phase, timeRatio: total / baseTime})
	}

	b := Table{
		ID:      "Fig 1b",
		Title:   "Partial power capping of CG's first phase: phase power over budget",
		Headers: []string{"config", "phase power/budget", "phase power savings"},
		Notes: []string{
			"paper: the phase's power drops ~16 % (110 W) and ~19 % (100 W) below the budget-relative default",
		},
	}
	c := Table{
		ID:      "Fig 1c",
		Title:   "Partial power capping of CG's first phase: total execution-time ratio",
		Headers: []string{"config", "time ratio"},
		Notes: []string{
			"paper: capping only the first phase does not impact the overall execution time at all",
		},
	}
	for _, r := range rows {
		b.Rows = append(b.Rows, []string{
			r.label,
			fmt.Sprintf("%.3f", r.phasePower/budget),
			pctu((1 - r.phasePower/budget) * 100),
		})
		c.Rows = append(c.Rows, []string{r.label, fmt.Sprintf("%.3f", r.timeRatio)})
	}
	return b, c, nil
}

// Fig3a renders the slowdown grid: execution-time overhead of DUF and DUFP
// per application and tolerance.
func Fig3a(g *Grid) (Table, error) {
	return gridTable(g, "Fig 3a", "Impact on performance: execution-time overhead vs tolerated slowdown",
		statCell(g, func(c dufp.Comparison) metricsStat { return c.TimeRatio }, overheadPct),
		[]string{
			"paper: tolerance respected in 34/40 DUFP configs; worst excess 3.17 % (LAMMPS@20); UA@0 and CG@20 also slightly over",
		})
}

// Fig3b renders the processor power savings grid.
func Fig3b(g *Grid) (Table, error) {
	return gridTable(g, "Fig 3b", "Impact on processor power: savings vs default",
		statCell(g, func(c dufp.Comparison) metricsStat { return c.PkgPowerRatio }, savingsPct),
		[]string{
			"positive = savings",
			"paper: best EP ≈ 24.27 %; CG@20 DUFP 17.57 % vs DUF 9.66 %; CG@10 DUFP ≈ 13.98 %; BT@20 DUFP 5.14 % vs DUF 0.64 %",
		})
}

// Fig3c renders the processor+DRAM energy savings grid.
func Fig3c(g *Grid) (Table, error) {
	return gridTable(g, "Fig 3c", "Impact on CPU+DRAM energy: savings vs default",
		statCell(g, func(c dufp.Comparison) metricsStat { return c.TotalEnergyRatio }, savingsPct),
		[]string{
			"positive = savings",
			"paper: no energy loss up to 10 % tolerance for most applications; losses at 20 % for LAMMPS, CG, LU, MG; CG@10 saves 4.7 %",
		})
}

// Fig4 renders the DRAM power savings grid.
func Fig4(g *Grid) (Table, error) {
	return gridTable(g, "Fig 4", "Impact on DRAM power: savings vs default",
		statCell(g, func(c dufp.Comparison) metricsStat { return c.DramPowerRatio }, savingsPct),
		[]string{
			"positive = savings",
			"paper: best CG@20 ≈ 8.83 %; only loss MG@0 ≈ 0.81 %",
		})
}

// metricsStat aliases the comparison stat type used by the grid cells.
type metricsStat = metrics.Stat

// overheadPct and savingsPct map a ratio to the displayed percentage.
func overheadPct(ratio float64) float64 { return (ratio - 1) * 100 }
func savingsPct(ratio float64) float64  { return (1 - ratio) * 100 }

// statCell formats a grid cell, adding [min, max] error bars when the grid
// options request them.
func statCell(g *Grid, pick func(dufp.Comparison) metricsStat, view func(float64) float64) func(dufp.Comparison) string {
	return func(c dufp.Comparison) string {
		st := pick(c)
		if !g.Opts.ErrorBars {
			return pct(view(st.Mean))
		}
		lo, hi := view(st.Min), view(st.Max)
		if lo > hi {
			lo, hi = hi, lo
		}
		return fmt.Sprintf("%s [%s, %s]", pct(view(st.Mean)), pct(lo), pct(hi))
	}
}

func gridTable(g *Grid, id, title string, cell func(dufp.Comparison) string, notes []string) (Table, error) {
	headers := []string{"app"}
	for _, tol := range g.Opts.Tolerances {
		headers = append(headers,
			fmt.Sprintf("DUF@%.0f%%", tol*100),
			fmt.Sprintf("DUFP@%.0f%%", tol*100))
	}
	t := Table{ID: id, Title: title, Headers: headers, Notes: notes}
	for _, app := range g.AppNames() {
		row := []string{app}
		for _, tol := range g.Opts.Tolerances {
			for _, gov := range []GovName{GovDUF, GovDUFP} {
				c, err := g.Compare(CellKey{App: app, Tolerance: tol, Gov: gov})
				if err != nil {
					return Table{}, err
				}
				row = append(row, cell(c))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5Result carries the Fig 5 table and the two recorded runs behind
// it: each run's lossless trace, decision log and timeline view.
type Fig5Result struct {
	Table Table
	DUF   dufp.RunResult
	DUFP  dufp.RunResult
}

// Fig5 reproduces the CPU-frequency comparison: CG at 10 % tolerated
// slowdown under DUF and DUFP, tracing socket 0 (the paper's core 0)
// from each run's record.
func Fig5(opts Options) (Fig5Result, error) {
	app, _ := dufp.AppByName("CG")
	cfg := dufp.DefaultControlConfig(0.10)
	ctx, session := opts.campaign()

	dufRes, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUF(cfg)}, dufp.WithRecord())
	if err != nil {
		return Fig5Result{}, err
	}
	dufpRes, err := session.Run(ctx, dufp.RunSpec{App: app, Governor: dufp.DUFP(cfg)}, dufp.WithRecord())
	if err != nil {
		return Fig5Result{}, err
	}

	dufS, dufpS := dufRes.Trace.Snapshot(0), dufpRes.Trace.Snapshot(0)

	// The exact averages come from the runs' streamed summaries.
	t := Table{
		ID:      "Fig 5",
		Title:   "CPU frequency under DUF vs DUFP, CG @ 10 % tolerated slowdown (socket 0)",
		Headers: []string{"time (s)", "DUF core (GHz)", "DUFP core (GHz)", "DUFP cap (W)"},
		Notes: []string{
			fmt.Sprintf("average core frequency: DUF %.2f GHz, DUFP %.2f GHz",
				dufRes.TraceSummary.AvgCoreFreq[0].GHz(), dufpRes.TraceSummary.AvgCoreFreq[0].GHz()),
			"paper: DUF averages ~2.8 GHz (maximum all-core turbo), DUFP ~2.5 GHz",
		},
	}
	dufDown := trace.Downsample(dufS, len(dufS)/24+1)
	dufpDown := trace.Downsample(dufpS, len(dufpS)/24+1)
	n := len(dufDown)
	if len(dufpDown) < n {
		n = len(dufpDown)
	}
	for i := 0; i < n; i++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", dufDown[i].Time.Seconds()),
			fmt.Sprintf("%.2f", dufDown[i].CoreFreq.GHz()),
			fmt.Sprintf("%.2f", dufpDown[i].CoreFreq.GHz()),
			fmt.Sprintf("%.0f", dufpDown[i].CapPL1.Watts()),
		})
	}
	return Fig5Result{Table: t, DUF: dufRes, DUFP: dufpRes}, nil
}
