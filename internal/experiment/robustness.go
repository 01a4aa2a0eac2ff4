package experiment

import (
	"fmt"
	"time"

	"dufp"
)

// FaultLevel names one severity step of the robustness sweep: a fault
// plan injected into every sensor and actuator seam of the run.
type FaultLevel struct {
	// Name labels the level in reports ("none", "noise", ...).
	Name string
	// Plan is the injected fault mix.
	Plan dufp.FaultPlan
}

// DefaultFaultLevels returns the standard severity ladder of the
// robustness grid, from a fault-free control row to a harsh mix of
// noise, stale reads, dropped samples, transient EIOs and cap
// enforcement lag.
func DefaultFaultLevels() []FaultLevel {
	return []FaultLevel{
		{Name: "none"},
		{Name: "noise", Plan: dufp.FaultPlan{
			CounterNoiseSD: 0.02,
			DropSampleP:    0.01,
		}},
		{Name: "noise+lag", Plan: dufp.FaultPlan{
			CounterNoiseSD:  0.02,
			DropSampleP:     0.01,
			ReadFailP:       0.02,
			CapWriteLatency: 50 * time.Millisecond,
			CapEnforceTau:   100 * time.Millisecond,
		}},
		{Name: "harsh", Plan: dufp.FaultPlan{
			CounterNoiseSD:  0.05,
			StuckP:          0.01,
			StuckFor:        3,
			DropSampleP:     0.03,
			ReadFailP:       0.05,
			CapWriteLatency: 100 * time.Millisecond,
			CapEnforceTau:   200 * time.Millisecond,
		}},
	}
}

// robustGrace is the slack added to the tolerated slowdown before a
// robustness cell is declared out of tolerance. It matches the grace
// the paper-protocol checks grant the clean grid (run-to-run jitter),
// widened for the injected measurement noise itself.
const robustGrace = 0.035

// RobustnessCell is one (application, fault level, tolerance) result of
// the robustness grid.
type RobustnessCell struct {
	App       string
	Level     string
	Tolerance float64
	// Comparison expresses the faulted, guarded DUFP summary against the
	// application's clean baseline.
	Comparison dufp.Comparison
	// Faults counts the faults injected into run 0; Guard counts the
	// sample guard's reactions to them.
	Faults dufp.FaultStats
	Guard  dufp.GuardStats
	// WithinTolerance reports whether the mean slowdown stays inside
	// Tolerance plus the grid's grace.
	WithinTolerance bool
}

// RobustnessGrid holds the full sweep.
type RobustnessGrid struct {
	Opts   Options
	Levels []FaultLevel
	Cells  []RobustnessCell
}

// RunRobustness executes the robustness sweep: for every application and
// tolerance, the hardened DUFP controller (sample guard on) runs under
// each fault level and is compared against the application's clean
// baseline. Fault plans are part of run identity, so the sweep memoises
// and parallelises on the executor like every other campaign; one
// additional uncached run per cell collects the fault and guard
// counters.
func RunRobustness(opts Options, levels []FaultLevel) (*RobustnessGrid, error) {
	if opts.Runs < 1 {
		return nil, fmt.Errorf("experiment: need at least 1 run, got %d: %w", opts.Runs, dufp.ErrBadConfig)
	}
	if len(levels) == 0 {
		levels = DefaultFaultLevels()
	}
	for _, lv := range levels {
		if err := lv.Plan.Validate(); err != nil {
			return nil, fmt.Errorf("experiment: fault level %q: %w", lv.Name, err)
		}
	}
	apps, err := opts.apps()
	if err != nil {
		return nil, err
	}
	ctx, session := opts.campaign()

	g := &RobustnessGrid{Opts: opts, Levels: levels}
	for _, app := range apps {
		base, err := session.SummarizeCtx(ctx, app, dufp.Baseline(), opts.Runs)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s baseline: %w", app.Name, err)
		}
		for _, lv := range levels {
			faulted := session
			faulted.Faults = lv.Plan
			for _, tol := range opts.Tolerances {
				cfg := dufp.DefaultControlConfig(tol)
				cfg.Guard = dufp.DefaultGuardConfig()
				gov := dufp.DUFP(cfg)

				sum, err := faulted.SummarizeCtx(ctx, app, gov, opts.Runs)
				if err != nil {
					return nil, fmt.Errorf("experiment: %s/%s tol=%.0f%%: %w",
						app.Name, lv.Name, tol*100, err)
				}
				sum.Slowdown = tol
				cmp := dufp.CompareRuns(sum, base)

				probe, err := faulted.Run(ctx, dufp.RunSpec{App: app, Governor: gov}, dufp.WithRecord())
				if err != nil {
					return nil, fmt.Errorf("experiment: %s/%s tol=%.0f%% stats run: %w",
						app.Name, lv.Name, tol*100, err)
				}

				g.Cells = append(g.Cells, RobustnessCell{
					App:             app.Name,
					Level:           lv.Name,
					Tolerance:       tol,
					Comparison:      cmp,
					Faults:          probe.FaultStats,
					Guard:           probe.GuardStats,
					WithinTolerance: cmp.RespectsSlowdown(robustGrace),
				})
			}
		}
	}
	return g, nil
}

// Robustness renders the sweep as the report table: one row per cell
// with the slowdown, power and energy deltas, the injected-fault count,
// the guard's reactions, and the within-tolerance verdict.
func Robustness(opts Options, levels []FaultLevel) (Table, error) {
	g, err := RunRobustness(opts, levels)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "Robustness",
		Title: "DUFP under injected sensor/actuator faults (guarded controller vs clean baseline)",
		Headers: []string{"App", "Faults", "Tol", "Slowdown", "Power", "Energy",
			"Injected", "Retries", "Rejected", "Degraded", "OK"},
		Notes: []string{
			fmt.Sprintf("OK = mean slowdown within tolerance + %.1f %% grace; baselines run fault-free", robustGrace*100),
		},
	}
	for _, c := range g.Cells {
		ok := "yes"
		if !c.WithinTolerance {
			ok = "NO"
		}
		t.Rows = append(t.Rows, []string{
			c.App,
			c.Level,
			fmt.Sprintf("%.0f%%", c.Tolerance*100),
			pct(c.Comparison.TimeRatio.OverheadPercent()),
			pct(-c.Comparison.PkgPowerRatio.SavingsPercent()),
			pct(-c.Comparison.TotalEnergyRatio.SavingsPercent()),
			fmt.Sprintf("%d", c.Faults.Total()),
			fmt.Sprintf("%d", c.Guard.Retries),
			fmt.Sprintf("%d", c.Guard.Rejected),
			fmt.Sprintf("%d", c.Guard.DegradedEntries),
			ok,
		})
	}
	return t, nil
}
