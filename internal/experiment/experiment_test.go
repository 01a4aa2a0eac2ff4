package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dufp"
)

// fastOptions shrinks the protocol for test speed: two applications, two
// tolerances, two runs.
func fastOptions() Options {
	opts := DefaultOptions()
	opts.Runs = 2
	opts.Tolerances = []float64{0.10}
	opts.Apps = []string{"CG", "EP"}
	opts.Session.Seed = 7
	return opts
}

func TestTableI(t *testing.T) {
	tab := TableI(DefaultOptions())
	if tab.ID != "Table I" {
		t.Fatalf("ID = %q", tab.ID)
	}
	if len(tab.Rows) != 1 || len(tab.Rows[0]) != 4 {
		t.Fatalf("rows = %v", tab.Rows)
	}
	row := tab.Rows[0]
	if row[0] != "64" || row[1] != "[1.2-2.4]" || row[2] != "125" || row[3] != "150" {
		t.Fatalf("Table I row = %v, want the paper's values", row)
	}
}

func TestRunGridAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("grid campaign in -short mode")
	}
	opts := fastOptions()
	g, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Baselines) != 2 {
		t.Fatalf("baselines = %d, want 2", len(g.Baselines))
	}
	if len(g.Cells) != 2*1*2 {
		t.Fatalf("cells = %d, want 4", len(g.Cells))
	}
	names := g.AppNames()
	if len(names) != 2 || names[0] != "CG" || names[1] != "EP" {
		t.Fatalf("app order = %v, want suite order", names)
	}

	for _, build := range []func(*Grid) (Table, error){Fig3a, Fig3b, Fig3c, Fig4} {
		tab, err := build(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			t.Fatalf("%s: %d rows", tab.ID, len(tab.Rows))
		}
		// app + (DUF, DUFP) per tolerance.
		if len(tab.Headers) != 1+2*len(opts.Tolerances) {
			t.Fatalf("%s: headers %v", tab.ID, tab.Headers)
		}
	}

	// Spot the headline invariant on the grid itself: DUFP saves at least
	// as much processor power as DUF on CG at 10 %.
	duf, err := g.Compare(CellKey{App: "CG", Tolerance: 0.10, Gov: GovDUF})
	if err != nil {
		t.Fatal(err)
	}
	dufp_, err := g.Compare(CellKey{App: "CG", Tolerance: 0.10, Gov: GovDUFP})
	if err != nil {
		t.Fatal(err)
	}
	if dufp_.PkgPowerRatio.Mean > duf.PkgPowerRatio.Mean+0.005 {
		t.Errorf("DUFP power ratio %v above DUF %v on CG@10%%", dufp_.PkgPowerRatio.Mean, duf.PkgPowerRatio.Mean)
	}

	if _, err := g.Compare(CellKey{App: "XX"}); err == nil {
		t.Error("Compare accepted an unknown cell")
	}
}

func TestRunGridValidation(t *testing.T) {
	opts := fastOptions()
	opts.Runs = 0
	if _, err := RunGrid(opts); err == nil {
		t.Error("accepted zero runs")
	}
	opts = fastOptions()
	opts.Apps = []string{"NOPE"}
	if _, err := RunGrid(opts); err == nil {
		t.Error("accepted unknown application")
	}
}

func TestFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs in -short mode")
	}
	opts := DefaultOptions()
	opts.Runs = 1
	res, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	dufS, dufpS := res.DUF.Trace.Snapshot(0), res.DUFP.Trace.Snapshot(0)
	if len(dufS) == 0 || len(dufpS) == 0 {
		t.Fatal("empty traces")
	}
	// The paper protocol emits well under the reservoir capacity, so the
	// retained series is the full trace.
	if int64(len(dufS)) != res.DUF.Trace.Seen(0) {
		t.Fatalf("reservoir decimated: kept %d of %d", len(dufS), res.DUF.Trace.Seen(0))
	}
	if len(res.Table.Rows) < 10 {
		t.Fatalf("Fig 5 table has %d rows", len(res.Table.Rows))
	}
	// The paper's Fig 5 observation: DUFP's average core frequency is
	// visibly below DUF's for CG at 10 % tolerated slowdown.
	var dufAvg, dufpAvg float64
	for _, p := range dufS {
		dufAvg += p.CoreFreq.GHz()
	}
	dufAvg /= float64(len(dufS))
	for _, p := range dufpS {
		dufpAvg += p.CoreFreq.GHz()
	}
	dufpAvg /= float64(len(dufpS))
	if dufpAvg >= dufAvg-0.05 {
		t.Errorf("DUFP avg %.2f GHz not below DUF avg %.2f GHz", dufpAvg, dufAvg)
	}
}

func TestTableRenderers(t *testing.T) {
	tab := Table{
		ID:      "Fig X",
		Title:   "demo",
		Headers: []string{"app", "value"},
		Rows:    [][]string{{"CG", "+1.00%"}, {"EP", "-2.00%"}},
		Notes:   []string{"a note"},
	}
	var text, md, csv strings.Builder
	if err := tab.Render(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Fig X") || !strings.Contains(text.String(), "note: a note") {
		t.Fatalf("text = %q", text.String())
	}
	if err := tab.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| app | value |") {
		t.Fatalf("markdown = %q", md.String())
	}
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 || lines[0] != "app,value" {
		t.Fatalf("csv = %q", csv.String())
	}
}

func TestCGPrologueWindow(t *testing.T) {
	if d := cgPrologue(); d < time.Second {
		t.Fatalf("CG prologue = %v, implausibly short", d)
	}
}

func TestGridDeterminismUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("grid campaign in -short mode")
	}
	opts := fastOptions()
	opts.Apps = []string{"EP"}
	opts.Parallelism = 1
	seq, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	par, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	a := seq.Baselines["EP"]
	b := par.Baselines["EP"]
	if a.Time.Mean != b.Time.Mean || a.PkgPower.Mean != b.PkgPower.Mean {
		t.Fatalf("parallelism changed results: %+v vs %+v", a.Time, b.Time)
	}
	_ = dufp.Suite // keep the import honest
}

// TestClaims runs the paper's full §V protocol (the ten applications ×
// {baseline, DUF, DUFP at 0/5/10/20 %} × 10 runs, 900 runs) and requires
// EXPERIMENTS.md's Claims table row for row, so a claim whose verdict
// flips, or whose measured figure drifts, fails.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full-protocol campaign in -short mode")
	}
	if raceEnabled {
		t.Skip("full-protocol campaign under the race detector")
	}
	g, err := RunGrid(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Claims(g)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"tolerance respected (DUFP)", "34/40, worst excess 3.17 %", "32/40, worst excess 4.28 % (FT@0%)", "HOLDS"},
		{"measurement spread < 2 % for most configurations", "yes; very few above 3 %", "79/80 below 2 %, 0 above 3 %", "HOLDS"},
		{"DUFP saves processor power on every application", "yes", "true at 20 % tolerance", "HOLDS"},
		{"DUFP power savings ≥ DUF's", "holds for most configurations", "39/40 configurations", "HOLDS"},
		{"no energy loss at 5 % tolerance", "yes", "true (worst loss 0.00 %)", "HOLDS"},
		{"energy losses appear at 20 % tolerance", "LAMMPS, CG, LU, MG lose", "4 applications lose energy at 20 %", "HOLDS"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("claims table has %d rows, want %d: %q", len(tab.Rows), len(want), tab.Rows)
	}
	for i, w := range want {
		if !reflect.DeepEqual(tab.Rows[i], w) {
			t.Errorf("claim %d:\n got  %q\n want %q", i+1, tab.Rows[i], w)
		}
	}
}

func TestErrorBarsRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("grid campaign in -short mode")
	}
	opts := fastOptions()
	opts.Apps = []string{"EP"}
	opts.ErrorBars = true
	g, err := RunGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fig3b(g)
	if err != nil {
		t.Fatal(err)
	}
	cell := tab.Rows[0][1]
	if !strings.Contains(cell, "[") || !strings.Contains(cell, ",") {
		t.Fatalf("cell %q lacks error bars", cell)
	}
}

func TestToleranceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep campaign in -short mode")
	}
	opts := fastOptions()
	tab, err := ToleranceSweep(opts, "CG", []float64{0, 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if _, err := ToleranceSweep(opts, "NOPE", nil); err == nil {
		t.Error("accepted unknown app")
	}
}

func TestPeriodSweepTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep campaign in -short mode")
	}
	opts := fastOptions()
	tab, err := PeriodSweep(opts, "CG", 800*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if _, err := PeriodSweep(opts, "NOPE", 0); err == nil {
		t.Error("accepted unknown app")
	}
}

func TestPathologyTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("pathology campaign in -short mode")
	}
	opts := fastOptions()
	tab, err := Pathology(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAutoTune(t *testing.T) {
	if testing.Short() {
		t.Skip("autotune campaign in -short mode")
	}
	opts := fastOptions()
	opts.Runs = 1
	tab, err := AutoTune(opts, "EP")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 search steps", len(tab.Rows))
	}
	if len(tab.Notes) < 2 || !strings.Contains(tab.Notes[1], "chosen:") {
		t.Fatalf("no chosen configuration in notes: %v", tab.Notes)
	}
	if _, err := AutoTune(opts, "NOPE"); err == nil {
		t.Error("accepted unknown app")
	}
}

func TestFig1Tables(t *testing.T) {
	if testing.Short() {
		t.Skip("fig1 campaign in -short mode")
	}
	opts := fastOptions()
	opts.Runs = 1
	a, err := Fig1a(opts)
	if err != nil {
		t.Fatal(err)
	}
	// default + UFS + two caps.
	if len(a.Rows) != 4 {
		t.Fatalf("Fig1a rows = %d", len(a.Rows))
	}
	// Caps must save more budget-relative power than UFS alone, at more
	// time cost: the paper's motivation.
	if a.Rows[3][3] <= a.Rows[1][3] {
		t.Errorf("100 W cap saves %s, not above UFS %s", a.Rows[3][3], a.Rows[1][3])
	}

	b, c, err := Fig1bc(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 4 || len(c.Rows) != 4 {
		t.Fatalf("Fig1b/c rows = %d/%d", len(b.Rows), len(c.Rows))
	}
	// Fig 1c: partial capping costs no more than ~1 extra point over UFS.
	var ufs, capped float64
	fmt.Sscanf(c.Rows[1][1], "%f", &ufs)
	fmt.Sscanf(c.Rows[3][1], "%f", &capped)
	if capped > ufs+0.01 {
		t.Errorf("partial capping cost %.3f vs UFS %.3f; paper: no impact", capped, ufs)
	}
}
