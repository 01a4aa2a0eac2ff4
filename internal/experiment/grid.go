package experiment

import (
	"context"
	"fmt"
	"sort"

	"dufp"
)

// Options parameterises the experiment harness.
type Options struct {
	// Session configures the simulated node and measurement cadence.
	Session dufp.Session
	// Runs is the repetition count per configuration (paper: 10).
	Runs int
	// Tolerances are the tolerated slowdowns (paper: 0, 5, 10, 20 %).
	Tolerances []float64
	// Apps restricts the application set; empty means the full suite.
	Apps []string
	// Parallelism bounds concurrent runs. Zero schedules on the shared
	// executor at its default width (GOMAXPROCS); a positive value gives
	// the campaign a private executor of that width.
	Parallelism int
	// ErrorBars adds [min, max] intervals to the grid tables, mirroring
	// the paper's error bars (§V: min/max of the 8 retained runs).
	ErrorBars bool
	// Context cancels an in-flight campaign between decision rounds; nil
	// means context.Background().
	Context context.Context
	// Executor overrides the run scheduler — isolated cache statistics in
	// tests, a shared progress-observed instance in CLIs. It takes
	// precedence over Parallelism; nil uses the session's (usually the
	// shared process-wide one).
	Executor *dufp.Executor
}

// DefaultOptions returns the paper's full protocol.
func DefaultOptions() Options {
	return Options{
		Session:    dufp.NewSession(),
		Runs:       10,
		Tolerances: []float64{0, 0.05, 0.10, 0.20},
	}
}

func (o Options) apps() ([]dufp.App, error) {
	if len(o.Apps) == 0 {
		return dufp.Suite(), nil
	}
	var out []dufp.App
	for _, name := range o.Apps {
		a, err := dufp.AppNamed(name)
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		out = append(out, a)
	}
	return out, nil
}

// campaign resolves the execution environment once per harness entry
// point: the cancellation context and the session bound to the campaign's
// executor.
func (o Options) campaign() (context.Context, dufp.Session) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	session := o.Session
	switch {
	case o.Executor != nil:
		session = session.OnExecutor(o.Executor)
	case o.Parallelism > 0:
		session = session.OnExecutor(dufp.NewExecutor(dufp.ExecWorkers(o.Parallelism)))
	}
	return ctx, session
}

// GovName identifies a controller column in the grid.
type GovName string

// Grid columns.
const (
	GovDUF  GovName = "DUF"
	GovDUFP GovName = "DUFP"
)

// CellKey addresses one (application, tolerance, governor) configuration.
type CellKey struct {
	App       string
	Tolerance float64
	Gov       GovName
}

// Grid holds the full Fig 3/Fig 4 measurement campaign: per-application
// baselines plus one summary per configuration.
type Grid struct {
	Opts      Options
	Baselines map[string]dufp.Summary
	Cells     map[CellKey]dufp.Summary
}

// RunGrid executes the campaign: for every application, Runs baseline
// executions plus Runs executions per (tolerance × {DUF, DUFP}). All runs
// flow through the run executor, which bounds concurrency and issues each
// distinct (app, governor, session, idx) run exactly once — re-running a
// grid, or requesting its baselines from another table, is served from
// cache. Results are deterministic for a fixed Options.Session seed
// regardless of parallelism.
func RunGrid(opts Options) (*Grid, error) {
	if opts.Runs < 1 {
		return nil, fmt.Errorf("experiment: need at least 1 run, got %d: %w", opts.Runs, dufp.ErrBadConfig)
	}
	apps, err := opts.apps()
	if err != nil {
		return nil, err
	}
	ctx, session := opts.campaign()

	type cell struct {
		key CellKey // Gov=="" means baseline
		app dufp.App
		gov dufp.Governor
	}
	// A governor's identity is rendered when it is built, so build each
	// tolerance's pair once and share it across the applications.
	type govPair struct{ duf, dufp dufp.Governor }
	govs := make([]govPair, len(opts.Tolerances))
	for i, tol := range opts.Tolerances {
		cfg := dufp.DefaultControlConfig(tol)
		govs[i] = govPair{duf: dufp.DUF(cfg), dufp: dufp.DUFP(cfg)}
	}
	var cells []cell
	for _, app := range apps {
		cells = append(cells, cell{key: CellKey{App: app.Name}, app: app, gov: dufp.Baseline()})
		for i, tol := range opts.Tolerances {
			cells = append(cells,
				cell{key: CellKey{App: app.Name, Tolerance: tol, Gov: GovDUF}, app: app, gov: govs[i].duf},
				cell{key: CellKey{App: app.Name, Tolerance: tol, Gov: GovDUFP}, app: app, gov: govs[i].dufp})
		}
	}

	// One batch for the whole campaign: every (cell × run index) is
	// submitted to the executor at once, so its worker pool interleaves
	// runs across cells instead of draining them cell by cell.
	reqs := make([]dufp.SummaryRequest, len(cells))
	for i, c := range cells {
		reqs[i] = dufp.SummaryRequest{App: c.app, Governor: c.gov}
	}
	outcomes := session.SummarizeAll(ctx, reqs, opts.Runs)

	g := &Grid{
		Opts:      opts,
		Baselines: make(map[string]dufp.Summary),
		Cells:     make(map[CellKey]dufp.Summary),
	}
	for i, c := range cells {
		if err := outcomes[i].Err; err != nil {
			return nil, fmt.Errorf("experiment: %s/%s tol=%.0f%%: %w",
				c.key.App, c.key.Gov, c.key.Tolerance*100, err)
		}
		sum := outcomes[i].Summary
		// Annotate the tolerance: baseline summaries carry none.
		sum.Slowdown = c.key.Tolerance
		if c.key.Gov == "" {
			g.Baselines[c.key.App] = sum
		} else {
			g.Cells[c.key] = sum
		}
	}
	return g, nil
}

// Compare expresses one cell relative to its application baseline.
func (g *Grid) Compare(key CellKey) (dufp.Comparison, error) {
	cell, ok := g.Cells[key]
	if !ok {
		return dufp.Comparison{}, fmt.Errorf("experiment: no cell %+v", key)
	}
	base, ok := g.Baselines[key.App]
	if !ok {
		return dufp.Comparison{}, fmt.Errorf("experiment: no baseline for %s", key.App)
	}
	return dufp.CompareRuns(cell, base), nil
}

// AppNames returns the grid's applications in suite order.
func (g *Grid) AppNames() []string {
	var names []string
	for name := range g.Baselines {
		names = append(names, name)
	}
	order := make(map[string]int)
	for i, n := range appOrder() {
		order[n] = i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	return names
}

func appOrder() []string {
	apps := dufp.Suite()
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}
