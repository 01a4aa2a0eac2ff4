package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dufp/internal/arch"
	"dufp/internal/model"
)

func TestSuiteMatchesPaper(t *testing.T) {
	want := []string{"BT", "CG", "EP", "FT", "LU", "MG", "SP", "UA", "HPL", "LAMMPS"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("suite has %d apps, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("suite[%d] = %s, want %s", i, got[i], name)
		}
	}
}

func TestSuiteValidates(t *testing.T) {
	for _, app := range Suite() {
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
}

func TestNominalDurationsInRange(t *testing.T) {
	// Scaled-down analogue of the paper's 20-400 s selection: every app
	// runs 15-60 s at the default operating point.
	for _, app := range Suite() {
		d := app.NominalDuration()
		if d < 15*time.Second || d > 60*time.Second {
			t.Errorf("%s nominal duration = %v, want 15-60 s", app.Name, d)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("CG"); !ok {
		t.Error("CG missing")
	}
	if _, ok := ByName("NOPE"); ok {
		t.Error("found nonexistent app")
	}
}

func TestOperationalIntensityClasses(t *testing.T) {
	// The decision-relevant OI classification from the paper:
	// memory-intensive (<1), CPU-intensive (>1), highly memory (<0.02),
	// highly CPU (>100).
	spec := arch.XeonGold6130()
	oiOf := func(app, phase string) float64 {
		a, ok := ByName(app)
		if !ok {
			t.Fatalf("no app %s", app)
		}
		for _, l := range a.Loops {
			for _, ph := range l.Body {
				if ph.Name == phase {
					return ph.OperationalIntensity(spec)
				}
			}
		}
		t.Fatalf("no phase %s in %s", phase, app)
		return 0
	}

	cases := []struct {
		app, phase string
		lo, hi     float64
	}{
		{"CG", "cg.init", 0, 0.02}, // highly memory-intensive (§II-A)
		{"CG", "cg.spmv", 0.02, 1}, // memory-intensive
		{"FT", "ft.transpose", 0, 0.02},
		{"FT", "ft.fft", 1, 100},
		{"EP", "ep.chunk", 100, 1e9}, // highly CPU-intensive
		{"HPL", "hpl.update", 100, 1e9},
		{"HPL", "hpl.panel", 0.02, 1},
		{"MG", "mg.vcycle", 0.02, 1},
		{"SP", "sp.iter", 0.02, 1},
		{"BT", "bt.iter", 1, 100},
		{"LU", "lu.ssor", 1, 100},
		{"UA", "ua.compute", 1, 100},
		{"UA", "ua.mem", 0.02, 1},
		{"LAMMPS", "lmp.pair", 1, 100},
	}
	for _, tc := range cases {
		oi := oiOf(tc.app, tc.phase)
		if oi < tc.lo || oi >= tc.hi {
			t.Errorf("%s/%s OI = %.4f, want [%g, %g)", tc.app, tc.phase, oi, tc.lo, tc.hi)
		}
	}
}

func TestCGPrologueShare(t *testing.T) {
	// The prologue accounts for ≈5 % of CG's execution time (§II-A).
	cg, _ := ByName("CG")
	total := cg.NominalDuration().Seconds()
	init := cg.Loops[0].Body[0].Duration.Seconds()
	share := init / total
	if share < 0.03 || share > 0.08 {
		t.Fatalf("CG prologue share = %.1f %%, want ≈5 %%", share*100)
	}
}

func TestUnrollCounts(t *testing.T) {
	ua, _ := ByName("UA")
	phases := ua.Unroll(nil, Jitter{})
	var want int
	for _, l := range ua.Loops {
		want += l.Count * len(l.Body)
	}
	if len(phases) != want {
		t.Fatalf("unrolled %d phases, want %d", len(phases), want)
	}
}

func TestUnrollDeterministic(t *testing.T) {
	cg, _ := ByName("CG")
	a := cg.Unroll(rand.New(rand.NewSource(3)), DefaultJitter())
	b := cg.Unroll(rand.New(rand.NewSource(3)), DefaultJitter())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Duration != b[i].Duration || a[i].FlopFrac != b[i].FlopFrac {
			t.Fatalf("phase %d differs across same-seed unrolls", i)
		}
	}
	c := cg.Unroll(rand.New(rand.NewSource(4)), DefaultJitter())
	same := true
	for i := range a {
		if a[i].Duration != c[i].Duration {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestUnrollJitterBounded(t *testing.T) {
	cg, _ := ByName("CG")
	base := cg.Unroll(nil, Jitter{})
	jit := cg.Unroll(rand.New(rand.NewSource(5)), DefaultJitter())
	for i := range base {
		rel := math.Abs(jit[i].Duration.Seconds()-base[i].Duration.Seconds()) / base[i].Duration.Seconds()
		if rel > 0.05 {
			t.Fatalf("phase %d jittered by %.1f %%, want <5 %%", i, rel*100)
		}
		if jit[i].FlopFrac > 1 || jit[i].MemFrac > 1 {
			t.Fatalf("jitter drove fractions above 1: %+v", jit[i])
		}
	}
}

func TestUnrollNilRNGIsNominal(t *testing.T) {
	lu, _ := ByName("LU")
	phases := lu.Unroll(nil, DefaultJitter())
	var total time.Duration
	for _, ph := range phases {
		total += ph.Duration
	}
	if total != lu.NominalDuration() {
		t.Fatalf("nil-rng unroll duration %v != nominal %v", total, lu.NominalDuration())
	}
}

func TestValidateCatchesEmptyApps(t *testing.T) {
	if err := (App{}).Validate(); err == nil {
		t.Error("empty app validated")
	}
	if err := (App{Name: "X"}).Validate(); err == nil {
		t.Error("app without phases validated")
	}
	if err := (App{Name: "X", Loops: []Loop{{}}}).Validate(); err == nil {
		t.Error("app with empty loop validated")
	}
	bad := App{Name: "X", Loops: []Loop{{Count: 1, Body: []model.PhaseShape{{Name: "p"}}}}}
	if err := bad.Validate(); err == nil {
		t.Error("app with invalid phase validated")
	}
}

// TestValidateBoundsUnrolledPhases pins MaxPhases on every path that
// validates an app: Validate itself, ReadJSON and DecodeApp. Nothing here
// unrolls.
func TestValidateBoundsUnrolledPhases(t *testing.T) {
	ph := CG().Loops[0].Body[0]
	pair := []model.PhaseShape{ph, ph}
	app := func(loops ...Loop) App { return App{Name: "bound", Loops: loops} }
	tests := []struct {
		name string
		app  App
		ok   bool
	}{
		{"at the bound", app(Loop{Body: pair, Count: MaxPhases / 2}), true},
		{"at the bound, loops below one count once", app(Loop{Body: pair, Count: MaxPhases/2 - 1}, Loop{Body: pair[:1]}, Loop{Body: pair[:1], Count: -3}), true},
		{"one past the bound", app(Loop{Body: pair, Count: MaxPhases / 2}, Loop{Body: pair[:1], Count: 1}), false},
		{"one past, a loop below one counts once", app(Loop{Body: pair, Count: MaxPhases / 2}, Loop{Body: pair[:1], Count: -3}), false},
		{"1<<62 iterations", app(Loop{Body: pair, Count: 1 << 62}), false},
		{"1<<62 iterations after a full loop", app(Loop{Body: pair, Count: MaxPhases/2 - 1}, Loop{Body: pair, Count: 1 << 62}), false},
	}
	bound := fmt.Sprintf("more than %d phases", MaxPhases)
	for _, tc := range tests {
		doc, err := tc.app.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		_, readErr := ReadJSON(bytes.NewReader(doc))
		_, decodeErr := DecodeApp(doc, false)
		for path, err := range map[string]error{"Validate": tc.app.Validate(), "ReadJSON": readErr, "DecodeApp": decodeErr} {
			if tc.ok && err != nil {
				t.Errorf("%s: %s rejected it: %v", tc.name, path, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), bound)) {
				t.Errorf("%s: %s: err = %v, want the phase bound", tc.name, path, err)
			}
		}
	}

	// Rejecting 1<<62 iterations costs the error's few allocations.
	huge := app(Loop{Body: pair, Count: 1 << 62})
	if allocs := testing.AllocsPerRun(10, func() { _ = huge.Validate() }); allocs > 8 {
		t.Errorf("rejecting 1<<62 iterations allocated %v times", allocs)
	}
}

func TestAllShapesCompile(t *testing.T) {
	spec := arch.XeonGold6130()
	for _, app := range Suite() {
		for _, ph := range app.Unroll(nil, Jitter{}) {
			if _, err := model.Compile(spec, ph); err != nil {
				t.Errorf("%s/%s: %v", app.Name, ph.Name, err)
			}
		}
	}
}

func TestSubSamplingStructures(t *testing.T) {
	// Decision-relevant temporal structure: LAMMPS' burst is shorter than
	// the 200 ms sampling interval, UA's compute iteration too, while
	// FT's phases are long enough to be genuinely detected.
	lmp, _ := ByName("LAMMPS")
	if d := lmp.Loops[0].Body[1].Duration; d >= 200*time.Millisecond {
		t.Errorf("LAMMPS burst = %v, must alias under a 200 ms sampler", d)
	}
	ua, _ := ByName("UA")
	if d := ua.Loops[0].Body[0].Duration; d >= 200*time.Millisecond {
		t.Errorf("UA compute iteration = %v, must be sub-interval", d)
	}
	ft, _ := ByName("FT")
	for _, ph := range ft.Loops[0].Body {
		if ph.Duration < 400*time.Millisecond {
			t.Errorf("FT phase %s = %v, must span multiple samples", ph.Name, ph.Duration)
		}
	}
}
